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

std::string RunStore::path_of(const std::string& name,
                              StoreFormat format) const {
  const char* ext = format == StoreFormat::kPacked ? ".dvr" : ".json";
  return (fs::path(dir_) / (name + ext)).string();
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
  const RunInfo& i = info(name);
  return path_of(i.name, i.format);
}

std::string RunStore::add(const RunMetrics& run, std::string name,
                          StoreFormat format) {
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
  const std::uint64_t uid = run.save(path_of(final_name, format));
  RunInfo info;
  info.name = final_name;
  info.workload = run.workload;
  info.routing = run.routing;
  info.placement = run.placement;
  info.terminals =
      run.groups * run.routers_per_group * run.terminals_per_router;
  info.end_time = run.end_time;
  info.sampled = run.has_time_series();
  info.format = format;
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
  fs::remove(path_of(it->name, it->format));
  index_.erase(it);
  save_index();
}

void RunStore::repack(const std::string& name, StoreFormat format) {
  const auto it = std::find_if(index_.begin(), index_.end(),
                               [&](const RunInfo& i) { return i.name == name; });
  DV_REQUIRE(it != index_.end(), "run store has no run named '" + name + "'");
  if (it->format == format) return;
  const RunMetrics run = RunMetrics::load(path_of(it->name, it->format));
  // Write the new file before dropping the old one: a failure mid-repack
  // leaves the run readable in its original format.
  const std::uint64_t uid = run.save(path_of(it->name, format));
  fs::remove(path_of(it->name, it->format));
  it->format = format;
  if (it->uid == 0) it->uid = uid;
  save_index();
}

std::vector<std::string> RunStore::find(const std::string& workload,
                                        const std::string& routing,
                                        const std::string& placement) const {
  std::vector<std::string> out;
  for (const auto& info : index_) {
    if (!workload.empty() && info.workload != workload) continue;
    if (!routing.empty() && info.routing != routing) continue;
    if (!placement.empty() && info.placement != placement) continue;
    out.push_back(info.name);
  }
  return out;
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
    o["format"] = json::Value(to_string(info.format));
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
    info.format = store_format_from_string(entry.get_string("format", "text"));
    info.uid = std::stoull(entry.get_string("uid", "0"));
    index_.push_back(info);
  }
}

}  // namespace dv::metrics
