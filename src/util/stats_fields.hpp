// Each serving-stats struct is declared from one X-macro list, one row per
// field: X(type, name, default, unit), `unit` as in docs/STATS_REFERENCE.md.
// The structs, the STATS reply and tests/test_stats_reference.cpp expand the lists.
#pragma once

/// Expands one list row into a data member with its default.
#define PECAN_STATS_MEMBER(type, name, init, unit) type name = init;
