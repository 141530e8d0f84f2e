#include "metrics/run_store.hpp"

#include <algorithm>
#include <cctype>
#include <filesystem>
#include <fstream>
#include <sstream>

#include "metrics/dvr.hpp"

namespace dv::metrics {

namespace fs = std::filesystem;

RunStore::RunStore(std::string dir) : dir_(std::move(dir)) {
  DV_REQUIRE(!dir_.empty(), "run store needs a directory");
  fs::create_directories(dir_);
  load_index();
}

std::string RunStore::path_of(const std::string& name) const {
  return (fs::path(dir_) / (name + ".dvr")).string();
}

bool RunStore::contains(const std::string& name) const {
  return std::any_of(index_.begin(), index_.end(),
                     [&](const RunInfo& i) { return i.name == name; });
}

const RunInfo& RunStore::info(const std::string& name) const {
  const auto it =
      std::find_if(index_.begin(), index_.end(),
                   [&](const RunInfo& i) { return i.name == name; });
  DV_REQUIRE(it != index_.end(),
             "run store has no run named '" + name + "'");
  return *it;
}

std::string RunStore::path(const std::string& name) const {
  return path_of(info(name).name);
}

std::string RunStore::add(const RunMetrics& run, std::string name) {
  if (name.empty()) {
    name = run.workload + "_" + run.routing + "_" + run.placement;
    for (auto& c : name) {
      if (!std::isalnum(static_cast<unsigned char>(c)) && c != '_' &&
          c != '-') {
        c = '-';
      }
    }
  }
  std::string final_name = name;
  for (int suffix = 2; contains(final_name); ++suffix) {
    final_name = name + "_" + std::to_string(suffix);
  }
  const std::uint64_t uid = run.save(path_of(final_name));
  RunInfo info;
  info.name = final_name;
  info.workload = run.workload;
  info.routing = run.routing;
  info.placement = run.placement;
  info.terminals =
      run.groups * run.routers_per_group * run.terminals_per_router;
  info.end_time = run.end_time;
  info.sampled = run.has_time_series();
  info.uid = uid;
  index_.push_back(info);
  save_index();
  return final_name;
}

RunMetrics RunStore::load(const std::string& name) const {
  return RunMetrics::load(path(name));
}

void RunStore::remove(const std::string& name) {
  const auto it = std::find_if(index_.begin(), index_.end(),
                               [&](const RunInfo& i) { return i.name == name; });
  DV_REQUIRE(it != index_.end(), "run store has no run named '" + name + "'");
  fs::remove(path_of(it->name));
  index_.erase(it);
  save_index();
}

void RunStore::save_index() const {
  json::Array arr;
  for (const auto& info : index_) {
    json::Object o;
    o["name"] = json::Value(info.name);
    o["workload"] = json::Value(info.workload);
    o["routing"] = json::Value(info.routing);
    o["placement"] = json::Value(info.placement);
    o["terminals"] = json::Value(info.terminals);
    o["end_time"] = json::Value(info.end_time);
    o["sampled"] = json::Value(info.sampled);
    // Constant, so older binaries that read a per-entry format still open
    // the store.
    o["format"] = json::Value("dvr");
    // uid as a decimal string: 64-bit values don't round-trip through a
    // JSON double.
    o["uid"] = json::Value(std::to_string(info.uid));
    arr.emplace_back(std::move(o));
  }
  // Atomic durable publish (tmp + fsync + rename): a reader, a crash, or
  // even a power loss never observes a torn index.
  const auto path = (fs::path(dir_) / "index.json").string();
  const auto text = json::dump(json::Value(std::move(arr)), 2);
  atomic_write_file(path, text.data(), text.size());
}

void RunStore::load_index() {
  const auto path = (fs::path(dir_) / "index.json").string();
  std::ifstream is(path, std::ios::binary);
  if (!is.good()) return;  // empty store
  std::ostringstream buf;
  buf << is.rdbuf();
  const auto v = json::parse(buf.str());
  index_.clear();
  for (const auto& entry : v.as_array()) {
    RunInfo info;
    info.name = entry.at("name").as_string();
    info.workload = entry.get_string("workload", "");
    info.routing = entry.get_string("routing", "");
    info.placement = entry.get_string("placement", "");
    info.terminals =
        static_cast<std::uint32_t>(entry.get_number("terminals", 0));
    info.end_time = entry.get_number("end_time", 0.0);
    info.sampled = entry.get_bool("sampled", false);
    // Older binaries could store text runs (NAME.json), and an entry with
    // no format was one of them.
    const json::Value* format = entry.find("format");
    if (format == nullptr || !format->is_string() ||
        format->as_string() != "dvr") {
      throw Error(path + ": entry '" + info.name + "' is not a packed run " +
                  "(format " + (format ? json::dump(*format) : "missing") +
                  ", want \"dvr\"); re-add it to a new store with " +
                  "`dragonviz store --dir NEW --action add --run " +
                  (fs::path(dir_) / (info.name + ".json")).string() +
                  " --name " + info.name + "`");
    }
    info.uid = std::stoull(entry.get_string("uid", "0"));
    index_.push_back(info);
  }
}

}  // namespace dv::metrics
