// The serve daemon: protocol round-trips over a socketpair, error paths,
// cross-session cache sharing, session lifecycle/teardown, byte-identity
// of daemon renders with the direct in-process path, admission control,
// and the docs-coverage contract (every dispatch-table verb documented).
#include <gtest/gtest.h>

#include <pthread.h>
#include <sys/socket.h>

#include <chrono>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <optional>
#include <sstream>
#include <thread>

#include "core/presets.hpp"
#include "core/projection.hpp"
#include "helpers.hpp"
#include "metrics/dvr.hpp"
#include "serve/client.hpp"
#include "serve/net_io.hpp"
#include "serve/server.hpp"

namespace dv {
namespace {

using serve::Address;
using serve::Client;
using serve::FrameStream;
using serve::RpcError;
using serve::ServeOptions;
using serve::Server;

const dv::testing::MiniRun& mini() {
  static const auto run = dv::testing::make_mini_run();
  return run;
}

/// The mini run saved in the test's own temp directory (the daemon loads
/// runs from files); written on the test's first call.
std::string mini_run_path() {
  const auto path = dv::testing::test_temp_dir() / "mini_run.json";
  if (!std::filesystem::exists(path)) mini().run.save(path.string());
  return path.string();
}

ServeOptions test_options() {
  ServeOptions opts;
  opts.workers = 2;
  opts.max_queue = 16;
  return opts;
}

/// One client connection to an in-process server over a socketpair: the
/// server end is driven by a dedicated thread running serve_fd, exactly
/// like a connection accepted from a listening socket.
struct Conn {
  explicit Conn(Server& server) {
    int sv[2] = {-1, -1};
    EXPECT_EQ(0, ::socketpair(AF_UNIX, SOCK_STREAM, 0, sv));
    thread = std::thread([&server, fd = sv[0]] { server.serve_fd(fd); });
    client.emplace(sv[1]);
  }
  ~Conn() { close(); }

  void close() {
    client.reset();  // EOF on the server side ends serve_fd
    if (thread.joinable()) thread.join();
  }

  std::optional<Client> client;
  std::thread thread;
};

json::Value render_params(const std::string& run = "mini") {
  json::Object p;
  if (!run.empty()) p["run"] = json::Value(run);
  p["spec"] = json::Value("preset:overview");
  return json::Value(std::move(p));
}

// --------------------------------------------------------------- protocol

TEST(ServeProtocol, HelloPingRoundTrip) {
  Server server(test_options());
  Conn conn(server);
  const auto hello = conn.client->call("hello");
  EXPECT_EQ(serve::kProtocolVersion,
            static_cast<int>(hello.get_number("protocol", 0)));
  EXPECT_EQ("dragonviz serve", hello.get_string("server", ""));
  EXPECT_EQ(serve::protocol_verbs().size(),
            hello.at("verbs").as_array().size());
  const auto pong = conn.client->call("ping");
  EXPECT_TRUE(pong.get_bool("pong", false));
}

TEST(ServeProtocol, MalformedFramesGetParseErrorsAndKeepTheConnection) {
  Server server(test_options());
  int sv[2] = {-1, -1};
  ASSERT_EQ(0, ::socketpair(AF_UNIX, SOCK_STREAM, 0, sv));
  std::thread t([&server, fd = sv[0]] { server.serve_fd(fd); });
  {
    FrameStream raw(sv[1]);
    std::string frame;

    raw.write_frame("this is not json");
    ASSERT_TRUE(raw.read_frame(frame));
    auto resp = json::parse(frame);
    EXPECT_FALSE(resp.get_bool("ok", true));
    EXPECT_EQ("parse", resp.at("error").get_string("code", ""));

    raw.write_frame("[1, 2, 3]");  // JSON, but not a request object
    ASSERT_TRUE(raw.read_frame(frame));
    resp = json::parse(frame);
    EXPECT_EQ("parse", resp.at("error").get_string("code", ""));

    raw.write_frame("{\"id\": 7, \"verb\": \"frobnicate\"}");
    ASSERT_TRUE(raw.read_frame(frame));
    resp = json::parse(frame);
    EXPECT_EQ(7, static_cast<int>(resp.get_number("id", 0)));
    EXPECT_EQ("unknown_verb", resp.at("error").get_string("code", ""));

    // Errors must not poison the connection: a good request still works.
    raw.write_frame("{\"id\": 8, \"verb\": \"ping\"}");
    ASSERT_TRUE(raw.read_frame(frame));
    resp = json::parse(frame);
    EXPECT_TRUE(resp.get_bool("ok", false));
  }
  t.join();
}

TEST(ServeProtocol, ErrorCodesDistinguishBadRequestAndNotFound) {
  Server server(test_options());
  Conn conn(server);
  try {
    json::Object p;
    p["spec"] = json::Value("preset:overview");
    conn.client->call("render", json::Value(std::move(p)));
    FAIL() << "render without a run must fail";
  } catch (const RpcError& e) {
    EXPECT_EQ("bad_request", e.code);
  }
  try {
    json::Object p;
    p["run"] = json::Value("nope");
    conn.client->call("use", json::Value(std::move(p)));
    FAIL() << "use of an unknown run must fail";
  } catch (const RpcError& e) {
    EXPECT_EQ("not_found", e.code);
  }
}

/// The mini run packed, and a copy with the top byte of its first
/// local_links.src_router flipped, so the copy fails validation on load.
std::pair<std::string, std::string> good_and_corrupt_runs() {
  const auto dir = dv::testing::test_temp_dir();
  const std::string good = (dir / "good.dvr").string();
  const std::string bad = (dir / "bad.dvr").string();
  metrics::save_dvr(mini().run, good);
  std::uint64_t at = 0;
  const metrics::DvrFile packed(good);
  for (const auto& c : packed.chunks()) {
    if (c.section == static_cast<std::uint16_t>(
                         metrics::DvrSection::kLocalLinks) &&
        c.column == 0) {
      at = c.offset + 3;
    }
  }
  EXPECT_GT(at, 0u);
  std::filesystem::copy_file(good, bad);
  std::fstream f(bad, std::ios::binary | std::ios::in | std::ios::out);
  f.seekg(static_cast<std::streamoff>(at));
  const char byte = static_cast<char>(f.get() ^ 0xFF);
  f.seekp(static_cast<std::streamoff>(at));
  f.put(byte);
  return {good, bad};
}

TEST(ServeProtocol, CorruptRunRepliesBadRequestAndTheSessionGoesOn) {
  const auto [good, bad] = good_and_corrupt_runs();
  Server server(test_options());
  server.catalog().attach(bad, "bad");
  server.catalog().attach(good, "good");
  Conn conn(server);
  try {
    conn.client->call("render", render_params("bad"));
    FAIL() << "rendering a corrupt run must fail";
  } catch (const RpcError& e) {
    EXPECT_EQ("bad_request", e.code);
    EXPECT_EQ("bad_request: " + bad + ": local_links.src_router[0] = " +
                  "4278190080 (>= 36 routers)",
              std::string(e.what()));
  }
  // An eager load of the corrupt file fails the same way; a missing file
  // stays not_found.
  try {
    json::Object p;
    p["path"] = json::Value(bad);
    conn.client->call("load", json::Value(std::move(p)));
    FAIL() << "loading a corrupt run must fail";
  } catch (const RpcError& e) {
    EXPECT_EQ("bad_request", e.code);
  }
  try {
    json::Object p;
    p["path"] = json::Value(bad + ".missing");
    conn.client->call("load", json::Value(std::move(p)));
    FAIL() << "loading a missing file must fail";
  } catch (const RpcError& e) {
    EXPECT_EQ("not_found", e.code);
  }

  // The good run still renders in the same session, byte-identical to a
  // direct render of the same file.
  const auto reply = conn.client->call("render", render_params("good"));
  const core::DataSet data(metrics::RunMetrics::load(good));
  core::QueryEngine engine(data);
  const core::ProjectionView view(data, core::preset("overview"), nullptr,
                                  &engine);
  EXPECT_EQ(view.to_svg(800, data.run().workload + " / " + data.run().routing),
            reply.at("svg").as_string());
}

// ------------------------------------------------------------ cache sharing

TEST(ServeCache, TwoSessionsShareOneResultCache) {
  Server server(test_options());
  server.catalog().load(mini_run_path(), "mini");
  Conn a(server);
  Conn b(server);

  const auto ra = a.client->call("render", render_params());
  const auto sa = a.client->call("stats");
  const double misses_after_a = sa.at("cache").get_number("misses", -1);
  const double hits_after_a = sa.at("cache").get_number("hits", -1);
  EXPECT_GT(misses_after_a, 0);

  const auto rb = b.client->call("render", render_params());
  const auto sb = b.client->call("stats");
  // B's identical render is served from the cache A populated: hits move,
  // misses do not.
  EXPECT_EQ(misses_after_a, sb.at("cache").get_number("misses", -1));
  EXPECT_GT(sb.at("cache").get_number("hits", -1), hits_after_a);
  EXPECT_EQ(ra.at("svg").as_string(), rb.at("svg").as_string());
}

TEST(ServeCache, ConcurrentSessionsShareOneResultCache) {
  // Eight sessions, each on its own thread, render the same six windowed
  // overview views. Every session must get the same bytes per view, and
  // the shared cache must compute each distinct result once, however the
  // sessions interleave: a session that joins an in-flight compute counts
  // a hit, not a miss. So the fleet misses exactly as often as one session
  // rendering the six views alone.
  constexpr std::size_t kSessions = 8;
  constexpr std::size_t kViews = 6;
  ServeOptions opts = test_options();
  opts.cache_capacity = 4096;  // no evictions: each result misses once
  const double end = mini().run.end_time;
  const auto view = [&](std::size_t v) {
    auto p = render_params();
    const double t0 = end * 0.5 * static_cast<double>(v) / kViews;
    p.as_object()["window"] =
        json::Value(json::Array{json::Value(t0), json::Value(t0 + end * 0.4)});
    return p;
  };
  const auto misses = [](Server& server) {
    Conn control(server);
    return control.client->call("stats").at("cache").get_number("misses", -1);
  };

  double lone_misses = 0;
  {
    Server lone(opts);
    lone.catalog().load(mini_run_path(), "mini");
    Conn conn(lone);
    for (std::size_t v = 0; v < kViews; ++v) {
      conn.client->call("render", view(v));
    }
    lone_misses = misses(lone);
  }
  ASSERT_GE(lone_misses, static_cast<double>(kViews));

  Server server(opts);
  server.catalog().load(mini_run_path(), "mini");

  std::vector<std::vector<std::string>> svgs(kSessions,
                                             std::vector<std::string>(kViews));
  {
    std::vector<std::unique_ptr<Conn>> conns;
    for (std::size_t s = 0; s < kSessions; ++s) {
      conns.push_back(std::make_unique<Conn>(server));
    }
    std::vector<std::thread> sessions;
    for (std::size_t s = 0; s < kSessions; ++s) {
      sessions.emplace_back([&, s] {
        for (std::size_t v = 0; v < kViews; ++v) {
          try {
            svgs[s][v] =
                conns[s]->client->call("render", view(v)).at("svg").as_string();
          } catch (const std::exception& e) {
            svgs[s][v] = std::string("error: ") + e.what();
          }
        }
      });
    }
    for (auto& t : sessions) t.join();
  }
  for (std::size_t v = 0; v < kViews; ++v) {
    EXPECT_EQ(0u, svgs[0][v].rfind("<svg", 0)) << svgs[0][v].substr(0, 80);
    for (std::size_t s = 1; s < kSessions; ++s) {
      EXPECT_EQ(svgs[0][v], svgs[s][v]) << "session " << s << ", view " << v;
    }
  }
  EXPECT_EQ(lone_misses, misses(server));
}

TEST(ServeCache, DaemonRenderIsByteIdenticalToDirectRender) {
  Server server(test_options());
  server.catalog().load(mini_run_path(), "mini");
  Conn conn(server);

  const auto first = conn.client->call("render", render_params());
  const auto second = conn.client->call("render", render_params());
  // Cached result == freshly computed result, byte for byte.
  EXPECT_EQ(first.at("svg").as_string(), second.at("svg").as_string());

  // And both match the direct in-process path with the CLI's defaults
  // (size 800, title "<workload> / <routing>") on the same file.
  const core::DataSet data(metrics::RunMetrics::load(mini_run_path()));
  core::QueryEngine engine(data);
  const core::ProjectionView view(data, core::preset("overview"), nullptr,
                                  &engine);
  const std::string direct = view.to_svg(
      800, data.run().workload + " / " + data.run().routing);
  EXPECT_EQ(direct, first.at("svg").as_string());
}

TEST(ServeCache, WindowedRenderMatchesSpecWindow) {
  Server server(test_options());
  server.catalog().load(mini_run_path(), "mini");
  Conn conn(server);
  const double end = mini().run.end_time;
  const double t0 = end * 0.2, t1 = end * 0.8;

  // Session window (set via the window verb) ...
  json::Object w;
  w["t0"] = json::Value(t0);
  w["t1"] = json::Value(t1);
  conn.client->call("window", json::Value(std::move(w)));
  const auto via_session = conn.client->call("render", render_params());

  // ... must produce the same bytes as an explicit per-request window.
  json::Object cw;
  cw["clear"] = json::Value(true);
  conn.client->call("window", json::Value(std::move(cw)));
  auto p = render_params();
  p.as_object()["window"] =
      json::Value(json::Array{json::Value(t0), json::Value(t1)});
  const auto via_param = conn.client->call("render", p);
  EXPECT_EQ(via_session.at("svg").as_string(),
            via_param.at("svg").as_string());

  // And differ from the unwindowed render.
  const auto full = conn.client->call("render", render_params());
  EXPECT_NE(full.at("svg").as_string(), via_param.at("svg").as_string());
}

// -------------------------------------------------------- session lifecycle

TEST(ServeSession, TeardownFreesBrushState) {
  Server server(test_options());
  server.catalog().load(mini_run_path(), "mini");
  auto a = std::make_unique<Conn>(server);
  Conn b(server);

  json::Object brush;
  brush["axis"] = json::Value("avg_latency");
  brush["lo"] = json::Value(0.0);
  brush["hi"] = json::Value(1e12);
  const auto echo = a->client->call("brush", json::Value(std::move(brush)));
  EXPECT_EQ(1u, echo.at("brushes").as_array().size());

  auto stats = b.client->call("stats");
  EXPECT_EQ(2, stats.at("server").get_number("sessions", -1));
  EXPECT_EQ(1, stats.at("server").get_number("active_brushes", -1));

  a->client->call("bye");
  a->close();  // joins the server-side reader; session destroyed

  stats = b.client->call("stats");
  EXPECT_EQ(1, stats.at("server").get_number("sessions", -1));
  EXPECT_EQ(0, stats.at("server").get_number("active_brushes", -1));
}

TEST(ServeSession, BrushReplacesSameAxisAndClears) {
  Server server(test_options());
  Conn conn(server);
  json::Object b1;
  b1["axis"] = json::Value("avg_hops");
  b1["hi"] = json::Value(4.0);
  conn.client->call("brush", json::Value(std::move(b1)));
  json::Object b2;
  b2["axis"] = json::Value("avg_hops");
  b2["hi"] = json::Value(5.0);
  const auto echo = conn.client->call("brush", json::Value(std::move(b2)));
  ASSERT_EQ(1u, echo.at("brushes").as_array().size());
  EXPECT_EQ(5.0, echo.at("brushes").as_array()[0].get_number("hi", 0));
  // Unbounded lo is omitted from the echo (infinity has no JSON form).
  EXPECT_EQ(nullptr, echo.at("brushes").as_array()[0].find("lo"));

  json::Object clear;
  clear["clear"] = json::Value(true);
  const auto cleared = conn.client->call("brush", json::Value(std::move(clear)));
  EXPECT_TRUE(cleared.at("brushes").as_array().empty());
}

TEST(ServeSession, StatsCarriesPerSessionCounters) {
  Server server(test_options());
  server.catalog().load(mini_run_path(), "mini");
  Conn conn(server);
  conn.client->call("ping");
  conn.client->call("render", render_params());
  const auto stats = conn.client->call("stats");
  const auto& s = stats.at("session");
  EXPECT_GE(s.get_number("requests", 0), 3);  // ping + render + stats
  EXPECT_EQ(1, s.get_number("renders", -1));
  EXPECT_EQ(0, s.get_number("errors", -1));
  // Latency percentiles exist for the verbs this session exercised.
  EXPECT_GE(stats.at("latency_ms").at("render").get_number("count", 0), 1);
}

// --------------------------------------------------------------- admission

TEST(ServeAdmission, FullQueueRejectsWithOverloaded) {
  ServeOptions opts = test_options();
  opts.max_queue = 0;  // admission rejects every pool-bound request
  Server server(opts);
  server.catalog().load(mini_run_path(), "mini");
  Conn conn(server);
  try {
    conn.client->call("render", render_params());
    FAIL() << "render must be rejected when the queue is full";
  } catch (const RpcError& e) {
    EXPECT_EQ("overloaded", e.code);
  }
  // Light verbs bypass the pool and still work.
  EXPECT_TRUE(conn.client->call("ping").get_bool("pong", false));
}

// ------------------------------------------------------------------- docs

TEST(ServeDocs, EveryVerbIsDocumentedInTheProtocolDoc) {
  std::ifstream is(std::string(DV_DOCS_DIR) + "/SERVE_PROTOCOL.md");
  ASSERT_TRUE(is.good()) << "docs/SERVE_PROTOCOL.md missing";
  std::ostringstream buf;
  buf << is.rdbuf();
  const std::string doc = buf.str();
  for (const auto& verb : serve::protocol_verbs()) {
    // Each verb gets its own "### `verb`" section heading.
    EXPECT_NE(std::string::npos, doc.find("### `" + verb.name + "`"))
        << "verb '" << verb.name
        << "' is in the dispatch table but not documented in "
           "docs/SERVE_PROTOCOL.md";
  }
  // Every wire error code is documented too.
  for (const char* code : {"parse", "bad_request", "unknown_verb",
                           "not_found", "overloaded", "internal"}) {
    EXPECT_NE(std::string::npos, doc.find(std::string("`") + code + "`"))
        << "error code '" << code << "' undocumented";
  }
}

// --------------------------------------------------------------- plumbing

TEST(ServeNet, AddressParse) {
  const auto u = Address::parse("unix:/tmp/x.sock");
  EXPECT_EQ(Address::Kind::kUnix, u.kind);
  EXPECT_EQ("/tmp/x.sock", u.path);

  const auto t = Address::parse("tcp:4100");
  EXPECT_EQ(Address::Kind::kTcp, t.kind);
  EXPECT_EQ("127.0.0.1", t.host);
  EXPECT_EQ(4100, t.port);

  const auto th = Address::parse("tcp:127.0.0.1:4200");
  EXPECT_EQ("127.0.0.1", th.host);
  EXPECT_EQ(4200, th.port);

  EXPECT_THROW(Address::parse("http://nope"), Error);
  EXPECT_THROW(Address::parse("tcp:notaport"), Error);
}

TEST(ServeNet, FrameStreamSplitsBufferedFramesAndBoundsSize) {
  int sv[2] = {-1, -1};
  ASSERT_EQ(0, ::socketpair(AF_UNIX, SOCK_STREAM, 0, sv));
  FrameStream writer(sv[0]);
  FrameStream reader(sv[1], 64);  // tight frame bound for the oversize case

  writer.write_frame("alpha");
  writer.write_frame("beta");
  std::string frame;
  ASSERT_TRUE(reader.read_frame(frame));
  EXPECT_EQ("alpha", frame);
  ASSERT_TRUE(reader.read_frame(frame));
  EXPECT_EQ("beta", frame);

  writer.write_frame(std::string(256, 'x'));
  EXPECT_THROW(reader.read_frame(frame), Error);
}

/// The process's virtual size in bytes (VmSize in /proc/self/status).
std::size_t vm_size_bytes() {
  std::ifstream is("/proc/self/status");
  std::string line;
  while (std::getline(is, line)) {
    if (line.rfind("VmSize:", 0) == 0) {
      return std::stoull(line.substr(std::strlen("VmSize:"))) * 1024;
    }
  }
  return 0;
}

TEST(ServeNet, SequentialConnectionsDoNotGrowTheProcess) {
  const auto dir = dv::testing::test_temp_dir();
  ServeOptions opts = test_options();
  opts.listen = "unix:" + (dir / "s.sock").string();
  opts.ready_file = (dir / "ready").string();
  Server server(opts);
  std::thread daemon([&server] { server.listen_and_serve(); });
  for (int i = 0; i < 500 && !std::filesystem::exists(opts.ready_file); ++i) {
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
  }
  ASSERT_TRUE(std::filesystem::exists(opts.ready_file));
  const auto one_connection = [&opts] {
    auto client = Client::connect(opts.listen);
    EXPECT_TRUE(client.call("ping").get_bool("pong", false));
  };
  // Warm up first: malloc arenas and the thread-stack cache.
  for (int i = 0; i < 4; ++i) one_connection();
  const std::size_t before = vm_size_bytes();
  constexpr int kConnections = 64;
  for (int i = 0; i < kConnections; ++i) one_connection();
  const std::size_t after = vm_size_bytes();
  server.stop();
  daemon.join();

  // Each connection thread that finished but was never joined would keep
  // its stack mapped: allow half of one default stack per connection.
  pthread_attr_t attr;
  ASSERT_EQ(0, pthread_attr_init(&attr));
  std::size_t stack = 0;
  ASSERT_EQ(0, pthread_attr_getstacksize(&attr, &stack));
  pthread_attr_destroy(&attr);
  ASSERT_GT(before, 0u);
  EXPECT_LT(after, before + kConnections / 2 * stack)
      << "VmSize grew from " << before << " to " << after << " bytes";
}

TEST(ServeCatalog, SplitRunRef) {
  const auto [n1, p1] = serve::split_run_ref("runs/amg_adaptive.json");
  EXPECT_EQ("amg_adaptive", n1);
  EXPECT_EQ("runs/amg_adaptive.json", p1);
  const auto [n2, p2] = serve::split_run_ref("mine=out/x.json");
  EXPECT_EQ("mine", n2);
  EXPECT_EQ("out/x.json", p2);
  EXPECT_THROW(serve::split_run_ref("=x.json"), Error);
}

TEST(ServeCatalog, LoadGetUnloadKeepReferencesAlive) {
  serve::RunCatalog catalog(64, 2);
  const auto lr = catalog.load(mini_run_path(), "mini");
  EXPECT_EQ(1u, catalog.size());
  EXPECT_EQ(lr.get(), catalog.get("mini").get());
  catalog.unload("mini");
  EXPECT_EQ(0u, catalog.size());
  EXPECT_THROW(catalog.get("mini"), Error);
  // The handed-out run outlives its catalog entry.
  EXPECT_EQ("mixed", lr->data.run().workload);
  EXPECT_THROW(catalog.unload("mini"), Error);
}

}  // namespace
}  // namespace dv
