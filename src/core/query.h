#ifndef RSTORE_CORE_QUERY_H_
#define RSTORE_CORE_QUERY_H_

#include <string>

#include "version/types.h"

namespace rstore {

/// One query of the paper's four retrieval classes (§2.1, §5.4). The
/// workload generators build it and RStore::Run / RunAsync answer it.
/// Fields a class does not use are ignored.
struct Query {
  enum class Kind {
    kFullVersion,  // Q1: every record of `version`
    kRange,        // Q2: records of `version` with key in [key_lo, key_hi]
    kEvolution,    // Q3: every record with primary key `key`
    kPoint,        // the record with primary key `key` in `version`
  };
  // Every field has an initializer, so a designated initializer may name
  // only the fields its class uses.
  Kind kind = Kind::kFullVersion;
  VersionId version = 0;           // Q1/Q2/point
  std::string key_lo{}, key_hi{};  // Q2, both inclusive
  std::string key{};               // Q3/point
};

}  // namespace rstore

#endif  // RSTORE_CORE_QUERY_H_
