// Unit tests for the JSON module, including the relaxed script dialect the
// paper's Fig. 5 projection scripts use.
#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <string>

#include "util/rng.hpp"

#include "json/json.hpp"

namespace dv::json {
namespace {

TEST(Json, ParsesScalars) {
  EXPECT_TRUE(parse("null").is_null());
  EXPECT_EQ(parse("true").as_bool(), true);
  EXPECT_EQ(parse("false").as_bool(), false);
  EXPECT_DOUBLE_EQ(parse("3.25").as_number(), 3.25);
  EXPECT_DOUBLE_EQ(parse("-4e2").as_number(), -400.0);
  EXPECT_EQ(parse("\"hi\"").as_string(), "hi");
}

TEST(Json, ParsesNested) {
  const Value v = parse(R"({"a": [1, 2, {"b": "c"}], "d": {"e": null}})");
  EXPECT_EQ(v.at("a").as_array().size(), 3u);
  EXPECT_EQ(v.at("a").as_array()[2].at("b").as_string(), "c");
  EXPECT_TRUE(v.at("d").at("e").is_null());
}

TEST(Json, ObjectPreservesInsertionOrder) {
  const Value v = parse(R"({"z": 1, "a": 2, "m": 3})");
  std::vector<std::string> keys;
  for (const auto& [k, val] : v.as_object()) keys.push_back(k);
  EXPECT_EQ(keys, (std::vector<std::string>{"z", "a", "m"}));
}

TEST(Json, RelaxedDialect) {
  const Value v = parse("{ filter: { group_id : [0, 8] }, project : 'router', }");
  EXPECT_EQ(v.at("project").as_string(), "router");
  EXPECT_DOUBLE_EQ(v.at("filter").at("group_id").as_array()[1].as_number(), 8.0);
}

TEST(Json, Comments) {
  const Value v = parse("// leading\n{ a: 1 /* inline */, b: 2 }");
  EXPECT_DOUBLE_EQ(v.at("b").as_number(), 2.0);
}

TEST(Json, StringEscapes) {
  EXPECT_EQ(parse(R"("a\nb\t\"c\"\\")").as_string(), "a\nb\t\"c\"\\");
  EXPECT_EQ(parse(R"("A")").as_string(), "A");
}

TEST(Json, RoundTripDump) {
  const std::string src =
      R"({"name":"x","vals":[1,2.5,true,null],"nested":{"k":"v"}})";
  const Value v = parse(src);
  EXPECT_EQ(parse(dump(v)), v);
  EXPECT_EQ(parse(dump(v, 2)), v);  // pretty-print round trip
}

TEST(Json, Errors) {
  EXPECT_THROW(parse(""), Error);
  EXPECT_THROW(parse("{"), Error);
  EXPECT_THROW(parse("[1,"), Error);
  EXPECT_THROW(parse("{a 1}"), Error);
  EXPECT_THROW(parse("\"unterminated"), Error);
  EXPECT_THROW(parse("truex"), Error);
  EXPECT_THROW(parse("{} extra"), Error);
}

TEST(Json, ErrorHasLineInfo) {
  try {
    parse("{\n  a: 1,\n  b: }\n");
    FAIL() << "expected throw";
  } catch (const Error& e) {
    EXPECT_NE(std::string(e.what()).find("line 3"), std::string::npos);
  }
}

TEST(Json, ScriptCommaSeparatedObjects) {
  // The verbatim shape of the paper's Fig. 5 scripts.
  const Value v = parse_script(R"(
    { aggregate : "group_id", maxBins : 8,
      project : "global_link",
      vmap : { color : "sat_time", size : "traffic" },
      colors : ["white", "purple"]},
    { project : "router",
      aggregate : "router_rank",
      vmap : { color : "total_sat_time", },
      colors : ["white", "steelblue"],},
    { project : "terminal",
      aggregate : ["router_port", "workload"],
      vmap: { color :"workload", size : "avg_hops", },
      colors: ["green", "orange", "brown"],}
  )");
  ASSERT_TRUE(v.is_array());
  ASSERT_EQ(v.as_array().size(), 3u);
  EXPECT_EQ(v.as_array()[0].at("project").as_string(), "global_link");
  EXPECT_EQ(v.as_array()[2].at("aggregate").as_array()[1].as_string(),
            "workload");
}

TEST(Json, ScriptSingleObject) {
  const Value v = parse_script("{a: 1}");
  ASSERT_TRUE(v.is_array());
  EXPECT_EQ(v.as_array().size(), 1u);
}

TEST(Json, AccessorsThrowOnWrongType) {
  const Value v = parse("{\"a\": 1}");
  EXPECT_THROW(v.as_array(), Error);
  EXPECT_THROW(v.at("missing"), Error);
  EXPECT_THROW(v.at("a").as_string(), Error);
  EXPECT_DOUBLE_EQ(v.get_number("a", -1), 1.0);
  EXPECT_DOUBLE_EQ(v.get_number("b", -1), -1.0);
  EXPECT_EQ(v.get_string("a", "dflt"), "dflt");  // wrong type -> default
}

TEST(Json, NonFiniteNumbersSerializeAsNull) {
  EXPECT_EQ(dump(Value(std::nan(""))), "null");
}

/// dump()'s string escaping as it was first written: one byte at a time.
std::string per_byte_escape(const std::string& s) {
  std::string out = "\"";
  for (const char c : s) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\t': out += "\\t"; break;
      case '\r': out += "\\r"; break;
      case '\b': out += "\\b"; break;
      case '\f': out += "\\f"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof(buf), "\\u%04x", c);
          out += buf;
        } else {
          out += c;
        }
    }
  }
  return out + "\"";
}

void expect_escapes_like_oracle(const std::string& s) {
  const std::string out = dump(Value(s));
  EXPECT_EQ(out, per_byte_escape(s));
  EXPECT_EQ(parse(out).as_string(), s);
}

TEST(Json, DumpEscapesMatchPerByteOracle) {
  // Every byte value alone and inside a run.
  for (int b = 0; b < 256; ++b) {
    const std::string one(1, static_cast<char>(b));
    expect_escapes_like_oracle(one);
    expect_escapes_like_oracle("ab" + one + "cd");
  }
  // Each escape at the start and end of a run, doubled, and back to back
  // with every other one.
  const std::string escapes = std::string("\"\\\n\t\r\b\f\x01\x1f", 9);
  for (const char e : escapes) {
    expect_escapes_like_oracle(std::string(1, e) + "run");
    expect_escapes_like_oracle("run" + std::string(1, e));
    expect_escapes_like_oracle(std::string(2, e) + "x" + std::string(2, e));
    for (const char f : escapes) {
      expect_escapes_like_oracle(std::string{e, f});
      expect_escapes_like_oracle(std::string{'a', e, f, 'b'});
    }
  }
  expect_escapes_like_oracle("");
  expect_escapes_like_oracle("caf\xc3\xa9 \xe2\x80\x94 \x7f");  // UTF-8, DEL

  // A megabyte of SVG-like markup: long clean runs, quotes, newlines.
  std::string svg = "<svg xmlns=\"http://www.w3.org/2000/svg\">\n";
  std::uint64_t state = 7;
  while (svg.size() < (1u << 20)) {
    const std::uint64_t r = splitmix64(state);
    svg += "<path d=\"M" + std::to_string(r % 800) + " " +
           std::to_string((r >> 10) % 800) + " A12.5 12.5 0 0 1 3.25 4\" "
           "fill=\"#4682b4\"/>\n";
    if (r % 97 == 0) svg += "<text>a\\b\t&amp;</text>\n";
  }
  expect_escapes_like_oracle(svg);
  Object reply;
  reply["svg"] = Value(svg);
  EXPECT_EQ(parse(dump(Value(reply))).at("svg").as_string(), svg);
}

TEST(Json, DumpNumbersMatchPrintf) {
  auto want = [](double d) -> std::string {
    if (std::isnan(d) || std::isinf(d)) return "null";
    char buf[40];
    if (d == std::floor(d) && std::fabs(d) < 1e15) {
      std::snprintf(buf, sizeof(buf), "%lld", static_cast<long long>(d));
    } else {
      std::snprintf(buf, sizeof(buf), "%.17g", d);
    }
    return buf;
  };
  for (const double d : {0.0, -0.0, 1.0, -3.0, 0.1, 2.5, 1e15, -1e15, 1e16,
                         999999999999999.0, 1e-300, 5e-324, 1.7976931348623157e308,
                         std::nan(""), HUGE_VAL}) {
    EXPECT_EQ(dump(Value(d)), want(d)) << d;
  }
  std::uint64_t state = 11;
  for (int i = 0; i < 100000; ++i) {
    const std::uint64_t r = splitmix64(state);
    const double d = i % 2 ? std::bit_cast<double>(r)
                           : static_cast<double>(r >> 20) / 1024.0;
    ASSERT_EQ(dump(Value(d)), want(d)) << i;
  }
}

}  // namespace
}  // namespace dv::json
