// rstore_shell — a minimal interactive/scriptable client for RStore,
// exercising the full public API including the VCS surface. Reads commands
// from stdin, one per line:
//
//   put <branch> <key> <json>     stage-and-commit one upsert
//   del <branch> <key>            commit one delete
//   get <key> @<version|branch>   point lookup
//   checkout <branch|@version>    full version retrieval
//   range <lo> <hi> @<vers|br>    partial retrieval
//   history <key>                 record evolution
//   branch <name> @<vers|br>      create a branch
//   tag <name> @<vers|br>         create a tag
//   log                           version graph summary
//   stats                         storage/span/index statistics
//   metrics [json]                process metrics (Prometheus text or JSON)
//   statz                         metrics snapshot + delta since last statz
//   slowlog [json]                flight recorder: slowest + recent queries
//   trace [-o file] <query...>    run a query, print its span tree; with
//                                 -o, also write Chrome trace JSON
//   verify                        offline integrity check (fsck)
//   repartition                   full offline repartition
//   help / quit
//
// Example session:
//   $ printf 'put master a {"x":1}\nput master a {"x":2}\nhistory a\n' |
//       ./build/examples/rstore_shell

#include <cstdio>
#include <iostream>
#include <map>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "common/flight_recorder.h"
#include "common/metrics.h"
#include "common/string_util.h"
#include "common/trace.h"
#include "core/branch_manager.h"
#include "core/report.h"
#include "core/rstore.h"
#include "json/json_parser.h"
#include "kvstore/cluster.h"

using namespace rstore;

namespace {

class Shell {
 public:
  Shell() : cluster_(MakeClusterOptions()) {
    Options options;
    options.algorithm = PartitionAlgorithm::kBottomUp;
    options.chunk_capacity_bytes = 64 << 10;
    options.max_sub_chunk_records = 8;
    options.online_batch_size = 1;  // interactive: apply immediately
    store_ = std::move(RStore::Open(&cluster_, options)).value();
    vcs_ = std::make_unique<BranchManager>(store_.get());
  }

  int Run() {
    std::string line;
    while (std::getline(std::cin, line)) {
      if (!Dispatch(line)) break;
    }
    return 0;
  }

 private:
  static ClusterOptions MakeClusterOptions() {
    ClusterOptions options;
    options.num_nodes = 4;
    options.replication_factor = 2;
    return options;
  }

  /// "@12" -> version 12; "@name" or "name" -> branch tip or tag.
  Result<VersionId> Resolve(const std::string& token) {
    std::string name = token;
    if (!name.empty() && name[0] == '@') name = name.substr(1);
    if (!name.empty() && isdigit(static_cast<unsigned char>(name[0]))) {
      return static_cast<VersionId>(std::stoul(name));
    }
    auto tip = vcs_->Tip(name);
    if (tip.ok()) return tip;
    return vcs_->ResolveTag(name);
  }

  void Report(const Status& s) {
    std::printf("%s\n", s.ok() ? "ok" : s.ToString().c_str());
  }

  void PrintRecords(const std::vector<Record>& records) {
    for (const Record& r : records) {
      std::printf("%-20s %s\n", r.key.ToString().c_str(), r.payload.c_str());
    }
    std::printf("(%zu records)\n", records.size());
  }

  /// `trace [-o file] <checkout|get|range|history> <args...>`: runs the
  /// query with a TraceContext attached, prints the span tree, and (with
  /// -o) writes Chrome trace-event JSON loadable in Perfetto.
  void RunTrace(std::istringstream& in) {
    std::string token, out_file;
    in >> token;
    if (token == "-o") {
      in >> out_file >> token;
    }
    TraceContext trace;
    Status status = Status::OK();
    if (token == "checkout") {
      std::string at;
      in >> at;
      auto version = Resolve(at);
      if (!version.ok()) {
        Report(version.status());
        return;
      }
      status = store_->GetVersion(*version, nullptr, &trace).status();
    } else if (token == "get") {
      std::string key, at;
      in >> key >> at;
      auto version = Resolve(at);
      if (!version.ok()) {
        Report(version.status());
        return;
      }
      status = store_->GetRecord(key, *version, nullptr, &trace).status();
    } else if (token == "range") {
      std::string lo, hi, at;
      in >> lo >> hi >> at;
      auto version = Resolve(at);
      if (!version.ok()) {
        Report(version.status());
        return;
      }
      status =
          store_->GetRange(*version, lo, hi, nullptr, &trace).status();
    } else if (token == "history") {
      std::string key;
      in >> key;
      status = store_->GetHistory(key, nullptr, &trace).status();
    } else {
      std::printf("usage: trace [-o file] <checkout|get|range|history> "
                  "<args...>\n");
      return;
    }
    if (!status.ok()) {
      Report(status);
      return;
    }
    std::printf("%s", trace.ToDebugString().c_str());
    if (!out_file.empty()) {
      FILE* f = std::fopen(out_file.c_str(), "w");
      if (f == nullptr) {
        std::printf("error: cannot write %s\n", out_file.c_str());
        return;
      }
      std::string json = trace.ToChromeTraceJson();
      std::fwrite(json.data(), 1, json.size(), f);
      std::fclose(f);
      std::printf("wrote %zu bytes of Chrome trace JSON to %s\n",
                  json.size(), out_file.c_str());
    }
  }

  /// `slowlog [json]`: the flight recorder's slowest-N selection and
  /// most-recent ring, with full latency attribution per query.
  void RunSlowlog(std::istringstream& in) {
    std::string format;
    in >> format;
    FlightRecorder& recorder = FlightRecorder::Default();
    if (format == "json") {
      std::printf("%s\n", recorder.DumpJson().c_str());
      return;
    }
    auto print_rows = [](const char* title,
                         const std::vector<FlightRecord>& rows) {
      std::printf("%s:\n", title);
      std::printf("  %6s %-20s %9s %9s %9s %9s %9s %5s %5s\n", "id", "name",
                  "total_us", "queue_us", "svc_us", "retry_us", "hedge_us",
                  "retry", "tmout");
      for (const FlightRecord& r : rows) {
        std::printf("  %6llu %-20s %9llu %9llu %9llu %9llu %9llu %5llu %5llu\n",
                    (unsigned long long)r.id, r.name.c_str(),
                    (unsigned long long)r.latency.simulated_micros,
                    (unsigned long long)r.latency.queue_wait_us,
                    (unsigned long long)r.latency.service_us,
                    (unsigned long long)r.latency.retry_penalty_us,
                    (unsigned long long)r.latency.hedge_delta_us,
                    (unsigned long long)r.retries,
                    (unsigned long long)r.timeouts);
      }
      if (rows.empty()) std::printf("  (no queries recorded)\n");
    };
    print_rows("slowest", recorder.Slowest());
    print_rows("recent", recorder.Recent());
  }

  /// `statz`: every registry metric with its delta since the previous statz
  /// call — "what did that last command cost" without external tooling.
  void RunStatz() {
    MetricsSnapshot now = MetricsRegistry::Default().Snapshot();
    std::map<std::string, uint64_t> prev_counters(last_statz_.counters.begin(),
                                                  last_statz_.counters.end());
    std::printf("%-44s %14s %14s\n", "counter", "value", "delta");
    for (const auto& [name, value] : now.counters) {
      auto it = prev_counters.find(name);
      const uint64_t prev = it == prev_counters.end() ? 0 : it->second;
      std::printf("%-44s %14llu %+14lld\n", name.c_str(),
                  (unsigned long long)value,
                  (long long)(value - prev));
    }
    for (const auto& [name, value] : now.gauges) {
      std::printf("%-44s %14lld\n", name.c_str(), (long long)value);
    }
    std::map<std::string, std::pair<uint64_t, uint64_t>> prev_hist;
    for (const MetricsSnapshot::HistogramValue& h : last_statz_.histograms) {
      prev_hist[h.name] = {h.count, h.sum};
    }
    for (const MetricsSnapshot::HistogramValue& h : now.histograms) {
      const auto [prev_count, prev_sum] = prev_hist[h.name];
      std::printf("%-44s count %8llu (%+lld)  sum %12llu (%+lld)\n",
                  h.name.c_str(), (unsigned long long)h.count,
                  (long long)(h.count - prev_count), (unsigned long long)h.sum,
                  (long long)(h.sum - prev_sum));
    }
    last_statz_ = std::move(now);
  }

  bool Dispatch(const std::string& line) {
    std::istringstream in(line);
    std::string command;
    in >> command;
    if (command.empty() || command[0] == '#') return true;
    if (command == "quit" || command == "exit") return false;

    if (command == "help") {
      std::printf(
          "commands: put del get checkout range history branch tag log "
          "stats metrics statz slowlog trace report verify repartition "
          "quit\n");
    } else if (command == "put") {
      std::string branch, key;
      in >> branch >> key;
      std::string json;
      std::getline(in, json);
      size_t start = json.find_first_not_of(' ');
      json = start == std::string::npos ? "" : json.substr(start);
      if (!json::Parse(json).ok()) {
        std::printf("error: payload is not valid JSON\n");
        return true;
      }
      CommitDelta delta;
      delta.upserts.push_back({{key, 0}, json});
      auto v = vcs_->Commit(branch, std::move(delta));
      if (v.ok()) {
        std::printf("committed V%u on %s\n", *v, branch.c_str());
      } else {
        Report(v.status());
      }
    } else if (command == "del") {
      std::string branch, key;
      in >> branch >> key;
      CommitDelta delta;
      delta.deletes.push_back(key);
      auto v = vcs_->Commit(branch, std::move(delta));
      if (v.ok()) {
        std::printf("committed V%u on %s\n", *v, branch.c_str());
      } else {
        Report(v.status());
      }
    } else if (command == "get") {
      std::string key, at;
      in >> key >> at;
      auto version = Resolve(at);
      if (!version.ok()) {
        Report(version.status());
        return true;
      }
      auto record = store_->GetRecord(key, *version);
      if (record.ok()) {
        std::printf("%s = %s\n", record->key.ToString().c_str(),
                    record->payload.c_str());
      } else {
        Report(record.status());
      }
    } else if (command == "checkout") {
      std::string at;
      in >> at;
      auto version = Resolve(at);
      if (!version.ok()) {
        Report(version.status());
        return true;
      }
      QueryStats stats;
      auto records = store_->GetVersion(*version, &stats);
      if (!records.ok()) {
        Report(records.status());
        return true;
      }
      PrintRecords(*records);
      std::printf("span: %llu chunk(s), %.2f ms simulated\n",
                  (unsigned long long)stats.chunks_fetched,
                  stats.simulated_micros / 1000.0);
    } else if (command == "range") {
      std::string lo, hi, at;
      in >> lo >> hi >> at;
      auto version = Resolve(at);
      if (!version.ok()) {
        Report(version.status());
        return true;
      }
      auto records = store_->GetRange(*version, lo, hi);
      if (records.ok()) {
        PrintRecords(*records);
      } else {
        Report(records.status());
      }
    } else if (command == "history") {
      std::string key;
      in >> key;
      auto records = store_->GetHistory(key);
      if (records.ok()) {
        PrintRecords(*records);
      } else {
        Report(records.status());
      }
    } else if (command == "branch") {
      std::string name, at;
      in >> name >> at;
      auto version = Resolve(at);
      if (!version.ok()) {
        Report(version.status());
        return true;
      }
      Report(vcs_->CreateBranch(name, *version));
    } else if (command == "tag") {
      std::string name, at;
      in >> name >> at;
      auto version = Resolve(at);
      if (!version.ok()) {
        Report(version.status());
        return true;
      }
      Report(vcs_->Tag(name, *version));
    } else if (command == "log") {
      const VersionGraph& graph = store_->graph();
      for (VersionId v = 0; v < graph.size(); ++v) {
        std::printf("V%-4u parent=%s depth=%u%s\n", v,
                    graph.PrimaryParent(v) == kInvalidVersion
                        ? "-"
                        : ("V" + std::to_string(graph.PrimaryParent(v)))
                              .c_str(),
                    graph.Depth(v), graph.IsLeaf(v) ? "  (tip)" : "");
      }
      for (const std::string& name : vcs_->Branches()) {
        std::printf("branch %-12s -> V%u\n", name.c_str(),
                    *vcs_->Tip(name));
      }
      for (const std::string& name : vcs_->Tags()) {
        std::printf("tag    %-12s -> V%u\n", name.c_str(),
                    *vcs_->ResolveTag(name));
      }
    } else if (command == "stats") {
      std::printf("versions: %u  chunks: %llu  total span: %llu\n",
                  store_->num_versions(),
                  (unsigned long long)store_->NumChunks(),
                  (unsigned long long)store_->TotalVersionSpan());
      std::printf("compression: %.2fx  index memory: %s\n",
                  store_->CompressionRatio(),
                  HumanBytes(store_->catalog().ProjectionMemoryBytes())
                      .c_str());
      KVStats kv = cluster_.stats();
      std::printf("backend: %llu puts, %llu gets, %llu multigets, %s read\n",
                  (unsigned long long)kv.puts, (unsigned long long)kv.gets,
                  (unsigned long long)kv.multiget_batches,
                  HumanBytes(kv.bytes_read).c_str());
    } else if (command == "metrics") {
      std::string format;
      in >> format;
      if (format == "json") {
        std::printf("%s\n",
                    MetricsRegistry::Default().JsonSnapshot().c_str());
      } else {
        std::printf("%s", MetricsRegistry::Default().PrometheusText().c_str());
      }
    } else if (command == "statz") {
      RunStatz();
    } else if (command == "slowlog") {
      RunSlowlog(in);
    } else if (command == "trace") {
      RunTrace(in);
    } else if (command == "report") {
      auto report = BuildStoreReport(*store_, &cluster_);
      if (report.ok()) {
        std::printf("%s", report->ToString().c_str());
      } else {
        Report(report.status());
      }
    } else if (command == "verify") {
      Report(store_->VerifyIntegrity());
    } else if (command == "repartition") {
      Report(store_->Repartition());
    } else {
      std::printf("unknown command '%s' (try: help)\n", command.c_str());
    }
    return true;
  }

  Cluster cluster_;
  std::unique_ptr<RStore> store_;
  std::unique_ptr<BranchManager> vcs_;
  /// Baseline of the previous `statz` call (empty before the first one).
  MetricsSnapshot last_statz_;
};

}  // namespace

int main() {
  Shell shell;
  return shell.Run();
}
