// Unit tests for the tensor substrate: Tensor, elementwise ops, sgemm, Rng,
// serialization.
#include <gtest/gtest.h>

#include <cmath>
#include <cstdio>
#include <fstream>
#include <iterator>
#include <numeric>

#include "tensor/rng.hpp"
#include "tensor/serialize.hpp"
#include "tensor/sgemm.hpp"
#include "tensor/tensor.hpp"
#include "tensor/tensor_ops.hpp"
#include "util/crc32.hpp"

namespace pecan {
namespace {

TEST(Tensor, ShapeAndFill) {
  Tensor t({2, 3, 4});
  EXPECT_EQ(t.numel(), 24);
  EXPECT_EQ(t.ndim(), 3);
  EXPECT_EQ(t.dim(0), 2);
  EXPECT_EQ(t.dim(-1), 4);
  for (std::int64_t i = 0; i < t.numel(); ++i) EXPECT_EQ(t[i], 0.f);
  t.fill(2.5f);
  EXPECT_EQ(t[13], 2.5f);
}

TEST(Tensor, MultiIndexAccess) {
  Tensor t({2, 3});
  t.at({1, 2}) = 7.f;
  EXPECT_EQ(t[5], 7.f);
  EXPECT_THROW(t.at({2, 0}), std::out_of_range);
  EXPECT_THROW(t.at({0}), std::invalid_argument);
}

TEST(Tensor, ReshapePreservesData) {
  Tensor t({2, 6});
  for (std::int64_t i = 0; i < 12; ++i) t[i] = static_cast<float>(i);
  Tensor r = t.reshaped({3, 4});
  EXPECT_EQ(r.dim(0), 3);
  EXPECT_EQ(r[7], 7.f);
  EXPECT_THROW(t.reshaped({5, 5}), std::invalid_argument);
}

TEST(Tensor, Transpose2d) {
  Tensor t({2, 3});
  for (std::int64_t i = 0; i < 6; ++i) t[i] = static_cast<float>(i);
  Tensor tt = t.transposed_2d();
  EXPECT_EQ(tt.dim(0), 3);
  EXPECT_EQ(tt.at({2, 1}), t.at({1, 2}));
}

TEST(TensorOps, AddSubMul) {
  Tensor a({4}, std::vector<float>{1, 2, 3, 4});
  Tensor b({4}, std::vector<float>{4, 3, 2, 1});
  Tensor s = add(a, b);
  for (std::int64_t i = 0; i < 4; ++i) EXPECT_FLOAT_EQ(s[i], 5.f);
  Tensor d = sub(a, b);
  EXPECT_FLOAT_EQ(d[0], -3.f);
  Tensor m = mul(a, b);
  EXPECT_FLOAT_EQ(m[1], 6.f);
  EXPECT_THROW(add(a, Tensor({3})), std::invalid_argument);
}

TEST(TensorOps, Reductions) {
  Tensor a({4}, std::vector<float>{1, -5, 3, 4});
  EXPECT_FLOAT_EQ(sum(a), 3.f);
  EXPECT_FLOAT_EQ(mean(a), 0.75f);
  EXPECT_FLOAT_EQ(max_abs(a), 5.f);
  EXPECT_EQ(argmax(a), 3);
}

TEST(TensorOps, L1AndDot) {
  Tensor a({3}, std::vector<float>{1, 2, 3});
  Tensor b({3}, std::vector<float>{2, 0, 3});
  EXPECT_FLOAT_EQ(l1_distance(a, b), 3.f);
  EXPECT_FLOAT_EQ(dot(a, b), 11.f);
}

TEST(TensorOps, SoftmaxRowsSumToOne) {
  Rng rng(5);
  Tensor t = rng.randn({4, 7});
  Tensor s = softmax_lastdim(t, 0.7f);
  for (std::int64_t r = 0; r < 4; ++r) {
    double total = 0;
    for (std::int64_t c = 0; c < 7; ++c) {
      const float v = s[r * 7 + c];
      EXPECT_GT(v, 0.f);
      total += v;
    }
    EXPECT_NEAR(total, 1.0, 1e-5);
  }
}

TEST(TensorOps, SoftmaxTemperatureSharpens) {
  Tensor t({1, 3}, std::vector<float>{1.f, 2.f, 3.f});
  Tensor sharp = softmax_lastdim(t, 0.1f);
  Tensor smooth = softmax_lastdim(t, 10.f);
  EXPECT_GT(sharp[2], smooth[2]);
  EXPECT_LT(sharp[0], smooth[0]);
}

TEST(Sgemm, MatchesNaive) {
  Rng rng(11);
  const std::int64_t m = 7, n = 9, k = 5;
  Tensor a = rng.randn({m, k});
  Tensor b = rng.randn({k, n});
  Tensor c({m, n});
  matmul(a.data(), b.data(), c.data(), m, n, k);
  for (std::int64_t i = 0; i < m; ++i) {
    for (std::int64_t j = 0; j < n; ++j) {
      double acc = 0;
      for (std::int64_t kk = 0; kk < k; ++kk) acc += static_cast<double>(a[i * k + kk]) * b[kk * n + j];
      EXPECT_NEAR(c[i * n + j], acc, 1e-4) << i << "," << j;
    }
  }
}

TEST(Sgemm, TransposeFlags) {
  Rng rng(13);
  const std::int64_t m = 4, n = 6, k = 3;
  Tensor a = rng.randn({k, m});  // will be used transposed
  Tensor b = rng.randn({n, k});  // will be used transposed
  Tensor c({m, n});
  sgemm(true, true, m, n, k, 1.f, a.data(), m, b.data(), k, 0.f, c.data(), n);
  for (std::int64_t i = 0; i < m; ++i) {
    for (std::int64_t j = 0; j < n; ++j) {
      double acc = 0;
      for (std::int64_t kk = 0; kk < k; ++kk) {
        acc += static_cast<double>(a[kk * m + i]) * b[j * k + kk];
      }
      EXPECT_NEAR(c[i * n + j], acc, 1e-4);
    }
  }
}

TEST(Sgemm, AlphaBetaAccumulate) {
  Tensor a({1, 1}, std::vector<float>{2.f});
  Tensor b({1, 1}, std::vector<float>{3.f});
  Tensor c({1, 1}, std::vector<float>{10.f});
  sgemm(false, false, 1, 1, 1, 2.f, a.data(), 1, b.data(), 1, 0.5f, c.data(), 1);
  EXPECT_FLOAT_EQ(c[0], 2.f * 6.f + 5.f);
}

TEST(Rng, Deterministic) {
  Rng a(99), b(99);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a.next_u64(), b.next_u64());
}

TEST(Rng, UniformRange) {
  Rng rng(3);
  for (int i = 0; i < 1000; ++i) {
    const float v = rng.uniform(-2.f, 5.f);
    EXPECT_GE(v, -2.f);
    EXPECT_LT(v, 5.f);
  }
}

TEST(Rng, NormalMoments) {
  Rng rng(17);
  double sum = 0, sq = 0;
  const int n = 20000;
  for (int i = 0; i < n; ++i) {
    const float v = rng.normal();
    sum += v;
    sq += static_cast<double>(v) * v;
  }
  EXPECT_NEAR(sum / n, 0.0, 0.05);
  EXPECT_NEAR(sq / n, 1.0, 0.05);
}

TEST(Rng, ShuffleIsPermutation) {
  Rng rng(23);
  std::vector<std::int64_t> items(50);
  std::iota(items.begin(), items.end(), 0);
  rng.shuffle(items);
  std::vector<std::int64_t> sorted = items;
  std::sort(sorted.begin(), sorted.end());
  for (std::int64_t i = 0; i < 50; ++i) EXPECT_EQ(sorted[static_cast<std::size_t>(i)], i);
}

TEST(Rng, KaimingVariance) {
  Rng rng(29);
  Tensor w = rng.kaiming_normal({64, 144}, 144);
  double sq = 0;
  for (std::int64_t i = 0; i < w.numel(); ++i) sq += static_cast<double>(w[i]) * w[i];
  EXPECT_NEAR(sq / static_cast<double>(w.numel()), 2.0 / 144.0, 2e-3);
}

TEST(Serialize, RoundTrip) {
  Rng rng(31);
  TensorMap original;
  original["conv.weight"] = rng.randn({8, 9});
  original["fc.bias"] = rng.randn({10});
  const std::string path = "/tmp/pecan_serialize_test.bin";
  save_tensors(path, original);
  TensorMap loaded = load_tensors(path);
  ASSERT_EQ(loaded.size(), 2u);
  for (const auto& [name, tensor] : original) {
    ASSERT_TRUE(loaded.count(name));
    const Tensor& other = loaded.at(name);
    ASSERT_TRUE(tensor.same_shape(other));
    for (std::int64_t i = 0; i < tensor.numel(); ++i) EXPECT_EQ(tensor[i], other[i]);
  }
  std::remove(path.c_str());
}

TEST(Serialize, BadFileThrows) {
  EXPECT_THROW(load_tensors("/tmp/definitely_missing_pecan_file.bin"), std::runtime_error);
}

TEST(Serialize, MetadataRoundTrip) {
  Rng rng(37);
  TensorMap tensors;
  tensors["w"] = rng.randn({3, 3});
  const MetaMap meta{{"model", "lenet5"}, {"variant", "PECAN-D"}, {"empty", ""}};
  const std::string path = "/tmp/pecan_serialize_meta_test.bin";
  save_tensors(path, tensors, meta);
  TensorFile file = load_tensor_file(path);
  EXPECT_EQ(file.meta, meta);
  ASSERT_EQ(file.tensors.size(), 1u);
  EXPECT_TRUE(file.tensors.at("w").same_shape(tensors.at("w")));
  std::remove(path.c_str());
}

TEST(Serialize, ZeroElementTensorsRoundTrip) {
  TensorMap tensors;
  tensors["empty_dim"] = Tensor({0, 3});
  tensors["default"] = Tensor();
  tensors["scalar"] = Tensor(Shape{}, std::vector<float>{2.5f});
  const std::string path = "/tmp/pecan_serialize_zero_test.bin";
  save_tensors(path, tensors);
  TensorMap loaded = load_tensors(path);
  ASSERT_EQ(loaded.size(), 3u);
  EXPECT_EQ(loaded.at("empty_dim").numel(), 0);
  EXPECT_EQ(loaded.at("empty_dim").shape(), (Shape{0, 3}));
  EXPECT_EQ(loaded.at("default").numel(), 0);
  EXPECT_EQ(loaded.at("default").ndim(), 0);
  ASSERT_EQ(loaded.at("scalar").numel(), 1);
  EXPECT_EQ(loaded.at("scalar")[0], 2.5f);
  std::remove(path.c_str());
}

TEST(Serialize, BadMagicGivesClearError) {
  const std::string path = "/tmp/pecan_serialize_badmagic_test.bin";
  {
    std::ofstream out(path, std::ios::binary);
    out.write("JUNKJUNKJUNK", 12);
  }
  try {
    load_tensors(path);
    FAIL() << "expected std::runtime_error";
  } catch (const std::runtime_error& e) {
    EXPECT_NE(std::string(e.what()).find("bad magic"), std::string::npos);
  }
  std::remove(path.c_str());
}

TEST(Serialize, UnsupportedVersionGivesClearError) {
  // Version 1 (no metadata block, no explicit numel) is no longer read:
  // the writer has emitted version 2 with its trailer ever since.
  const std::string path = "/tmp/pecan_serialize_badver_test.bin";
  for (const std::uint32_t version : {1u, 99u}) {
    {
      std::ofstream out(path, std::ios::binary);
      out.write("PCAN", 4);
      out.write(reinterpret_cast<const char*>(&version), sizeof version);
    }
    try {
      load_tensors(path);
      FAIL() << "expected std::runtime_error for version " << version;
    } catch (const std::runtime_error& e) {
      EXPECT_NE(std::string(e.what()).find("unsupported format version " +
                                           std::to_string(version)),
                std::string::npos)
          << e.what();
    }
  }
  std::remove(path.c_str());
}

TEST(Serialize, TruncatedFileThrows) {
  Rng rng(41);
  TensorMap tensors;
  tensors["w"] = rng.randn({16, 16});
  const std::string path = "/tmp/pecan_serialize_trunc_test.bin";
  save_tensors(path, tensors);
  // Chop off the tail of the payload.
  std::ifstream in(path, std::ios::binary);
  std::vector<char> bytes((std::istreambuf_iterator<char>(in)), std::istreambuf_iterator<char>());
  in.close();
  {
    std::ofstream out(path, std::ios::binary | std::ios::trunc);
    out.write(bytes.data(), static_cast<std::streamsize>(bytes.size() - 100));
  }
  EXPECT_THROW(load_tensors(path), std::runtime_error);
  std::remove(path.c_str());
}

/// Hand-builds a version-2 file, trailer included, whose metadata block and
/// tensor block may repeat a key or a name.
void write_v2_file(const std::string& path,
                   const std::vector<std::pair<std::string, std::string>>& meta,
                   const std::vector<std::string>& tensor_names) {
  std::string bytes;
  const auto pod = [&bytes](const auto& v) {
    bytes.append(reinterpret_cast<const char*>(&v), sizeof v);
  };
  const auto str = [&](const std::string& text) {
    pod(static_cast<std::uint32_t>(text.size()));
    bytes += text;
  };
  bytes += "PCAN";
  pod(std::uint32_t{2});
  pod(static_cast<std::uint32_t>(meta.size()));
  for (const auto& [key, value] : meta) {
    str(key);
    str(value);
  }
  pod(static_cast<std::uint64_t>(tensor_names.size()));
  for (const std::string& name : tensor_names) {
    str(name);
    pod(std::uint32_t{1});  // ndim
    pod(std::int64_t{2});   // dims
    pod(std::uint64_t{2});  // numel
    pod(1.0f);
    pod(2.0f);
  }
  const std::uint32_t crc = util::crc32(bytes.data(), bytes.size());
  pod(std::uint32_t{0x43524332u});  // "2CRC"
  pod(crc);
  std::ofstream out(path, std::ios::binary);
  out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
}

TEST(Serialize, RepeatedNamesAreRejected) {
  // A first-wins map insert would keep one copy and silently drop the rest.
  const std::string path = "/tmp/pecan_serialize_repeat_test.bin";
  const auto expect_rejected = [&](const std::string& repeated) {
    try {
      load_tensor_file(path);
      FAIL() << "expected a repeated-name error for '" << repeated << "'";
    } catch (const std::runtime_error& e) {
      const std::string what = e.what();
      EXPECT_NE(what.find(path), std::string::npos) << what;
      EXPECT_NE(what.find("repeated"), std::string::npos) << what;
      EXPECT_NE(what.find("'" + repeated + "'"), std::string::npos) << what;
    }
  };
  write_v2_file(path, {{"k", "a"}}, {"w", "b", "w"});
  expect_rejected("w");
  write_v2_file(path, {{"k", "a"}, {"model", "lenet5"}, {"k", "b"}}, {"w"});
  expect_rejected("k");
  // The same builder without a repeat loads: the rejection is the repeat.
  write_v2_file(path, {{"k", "a"}}, {"w", "b"});
  const TensorFile file = load_tensor_file(path);
  EXPECT_EQ(file.meta.at("k"), "a");
  EXPECT_EQ(file.tensors.size(), 2u);
  EXPECT_EQ(file.tensors.at("w")[1], 2.0f);
  std::remove(path.c_str());
}

}  // namespace
}  // namespace pecan
