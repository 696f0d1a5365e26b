// Checks docs/STATS_REFERENCE.md against the stats field lists
// (util/stats_fields.hpp): every field of each stats struct has a row in
// that struct's own section of the reference, with the unit its list row
// gives, and no section documents a field its struct lacks. A section
// belongs to the struct named in its heading; a heading that names no
// struct (e.g. "### Traffic") stays in its parent's section.
#include <gtest/gtest.h>

#include <fstream>
#include <map>
#include <regex>
#include <sstream>
#include <string>
#include <vector>

#include "cam/bank_map.hpp"
#include "runtime/engine.hpp"
#include "runtime/net_server.hpp"
#include "runtime/server.hpp"

namespace pecan {
namespace {

struct Field {
  std::string name;
  std::string unit;
};

/// struct name -> its field list, in declaration order.
std::map<std::string, std::vector<Field>> field_lists() {
#define PECAN_FIELD_ROW(type, name, init, unit) {#name, unit},
  return {
      {"NetServerStats", {PECAN_NET_SERVER_STATS_FIELDS(PECAN_FIELD_ROW)}},
      {"ModelServerStats", {PECAN_MODEL_SERVER_STATS_FIELDS(PECAN_FIELD_ROW)}},
      {"EngineStats", {PECAN_ENGINE_STATS_FIELDS(PECAN_FIELD_ROW)}},
      {"EngineClassStats", {PECAN_ENGINE_CLASS_STATS_FIELDS(PECAN_FIELD_ROW)}},
      {"BankStats", {PECAN_BANK_STATS_FIELDS(PECAN_FIELD_ROW)}},
  };
#undef PECAN_FIELD_ROW
}

/// struct name -> (field -> unit) for every `| `field` | unit | ... |` table
/// row, attributed to the struct whose section holds it. Rows outside any
/// struct's section are ignored.
std::map<std::string, std::map<std::string, std::string>> documented(const std::string& doc) {
  static const std::regex heading(R"(^(#+)\s.*)");
  static const std::regex struct_name(
      R"(\b(NetServerStats|ModelServerStats|EngineStats|EngineClassStats|BankStats)\b)");
  static const std::regex row(R"(^\|\s*`(\w+)`\s*\|\s*([^|]*?)\s*\|)");
  std::map<std::string, std::map<std::string, std::string>> out;
  std::string section[2];  // struct named by the current ## and ### heading
  std::istringstream lines(doc);
  std::string line;
  std::smatch m;
  while (std::getline(lines, line)) {
    if (std::regex_match(line, m, heading)) {
      const std::size_t level = m[1].length();
      std::smatch named;
      const std::string name = std::regex_search(line, named, struct_name) ? named[1].str() : "";
      if (level <= 2) section[0] = level == 2 ? name : "";
      section[1] = level == 3 ? name : "";
    } else if (std::regex_search(line, m, row)) {
      const std::string& owner = section[1].empty() ? section[0] : section[1];
      if (!owner.empty()) out[owner][m[1].str()] = m[2].str();
    }
  }
  return out;
}

/// One line per mismatch between the field lists and `doc`.
std::vector<std::string> reference_failures(const std::string& doc) {
  const auto lists = field_lists();
  auto rows = documented(doc);
  std::vector<std::string> failures;
  for (const auto& [owner, fields] : lists) {
    std::map<std::string, std::string>& section = rows[owner];
    for (const Field& f : fields) {
      const auto it = section.find(f.name);
      if (it == section.end()) {
        failures.push_back(owner + "::" + f.name + " has no row in its section");
      } else if (it->second != f.unit) {
        failures.push_back(owner + "::" + f.name + " is documented in '" + it->second +
                           "', its list says '" + f.unit + "'");
      }
      if (it != section.end()) section.erase(it);
    }
    for (const auto& [name, unit] : section) {
      failures.push_back(owner + " section documents `" + name + "`, which is not a field");
    }
  }
  return failures;
}

std::string reference_text() {
  std::ifstream in(PECAN_SOURCE_DIR "/docs/STATS_REFERENCE.md");
  std::ostringstream text;
  text << in.rdbuf();
  return text.str();
}

std::string joined(const std::vector<std::string>& lines) {
  std::string out;
  for (const std::string& line : lines) out += line + "\n";
  return out;
}

TEST(StatsReference, EveryFieldHasARowWithItsUnitInItsOwnSection) {
  const std::string doc = reference_text();
  ASSERT_FALSE(doc.empty()) << "docs/STATS_REFERENCE.md not readable";
  const std::vector<std::string> failures = reference_failures(doc);
  EXPECT_TRUE(failures.empty()) << joined(failures);
}

// A row that some other struct also documents must still be caught when it
// goes missing from its own section: EngineStats documents `requests` too.
TEST(StatsReference, MissingOrMisunitedRowInOneSectionFails) {
  const std::string doc = reference_text();
  const std::size_t section = doc.find("EngineClassStats`)\n");
  ASSERT_NE(section, std::string::npos);

  std::string deleted = doc;
  const std::size_t row = deleted.find("\n| `requests` |", section);
  ASSERT_NE(row, std::string::npos);
  deleted.erase(row, deleted.find('\n', row + 1) - row);
  EXPECT_EQ(reference_failures(deleted),
            std::vector<std::string>{"EngineClassStats::requests has no row in its section"});

  std::string misunited = doc;
  const std::size_t unit = misunited.find("| `depth` | gauge |", section);
  ASSERT_NE(unit, std::string::npos);
  misunited.replace(unit, 19, "| `depth` | count |");
  EXPECT_EQ(reference_failures(misunited),
            std::vector<std::string>{
                "EngineClassStats::depth is documented in 'count', its list says 'gauge'"});
}

}  // namespace
}  // namespace pecan
