#include "util/json.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cfloat>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <limits>
#include <random>

#include "util/error.hpp"

namespace gridctl {
namespace {

// The writer's number loop before it moved to std::to_chars, kept as
// the byte oracle: "%.*g" at the smallest precision that strtod reads
// back as the same double.
std::string oracle_number(double value) {
  char buffer[32];
  for (int precision = 1; precision <= 17; ++precision) {
    std::snprintf(buffer, sizeof(buffer), "%.*g", precision, value);
    if (std::strtod(buffer, nullptr) == value) break;
  }
  return buffer;
}

std::string parse_error(const std::string& text) {
  try {
    parse_json(text);
  } catch (const InvalidArgument& e) {
    return e.what();
  }
  return "no error";
}

// A checkpoint-shaped document in save_checkpoint's layout (indent 1,
// one number per line): an object of trace series, each an array of
// per-step rows of doubles. About 4 MB.
std::string large_checkpoint_text() {
  std::mt19937_64 rng(2012);
  std::uniform_real_distribution<double> value(0.0, 4.0e6);
  JsonValue::Object trace;
  for (int series = 0; series < 8; ++series) {
    JsonValue::Array rows;
    for (int step = 0; step < 1500; ++step) {
      JsonValue::Array row;
      for (int idc = 0; idc < 16; ++idc) row.emplace_back(value(rng));
      rows.emplace_back(std::move(row));
    }
    trace.emplace("series_" + std::to_string(series),
                  JsonValue(std::move(rows)));
  }
  return dump_json(JsonValue(std::move(trace)), 1);
}

TEST(Json, ParsesScalars) {
  EXPECT_TRUE(parse_json("null").is_null());
  EXPECT_TRUE(parse_json("true").as_bool());
  EXPECT_FALSE(parse_json("false").as_bool());
  EXPECT_DOUBLE_EQ(parse_json("3.25").as_number(), 3.25);
  EXPECT_DOUBLE_EQ(parse_json("-1e3").as_number(), -1000.0);
  EXPECT_EQ(parse_json("\"hi\"").as_string(), "hi");
}

TEST(Json, ParsesNestedStructures) {
  const auto doc = parse_json(R"({
    "name": "gridctl",
    "idcs": [{"mu": 2.0}, {"mu": 1.25}],
    "nested": {"deep": [1, [2, 3]]}
  })");
  EXPECT_EQ(doc.at("name").as_string(), "gridctl");
  EXPECT_EQ(doc.at("idcs").as_array().size(), 2u);
  EXPECT_DOUBLE_EQ(doc.at("idcs").as_array()[1].at("mu").as_number(), 1.25);
  EXPECT_DOUBLE_EQ(
      doc.at("nested").at("deep").as_array()[1].as_array()[0].as_number(),
      2.0);
}

TEST(Json, EmptyContainers) {
  EXPECT_TRUE(parse_json("[]").as_array().empty());
  EXPECT_TRUE(parse_json("{}").as_object().empty());
  EXPECT_TRUE(parse_json(" [ ] ").as_array().empty());
}

TEST(Json, StringEscapes) {
  EXPECT_EQ(parse_json(R"("a\"b\\c\nd\te")").as_string(), "a\"b\\c\nd\te");
  EXPECT_EQ(parse_json(R"("Aé")").as_string(), "A\xc3\xa9");
  EXPECT_EQ(parse_json(R"("€")").as_string(), "\xe2\x82\xac");
}

TEST(Json, RejectsMalformedInput) {
  EXPECT_THROW(parse_json(""), InvalidArgument);
  EXPECT_THROW(parse_json("{"), InvalidArgument);
  EXPECT_THROW(parse_json("[1, 2"), InvalidArgument);
  EXPECT_THROW(parse_json("{\"a\" 1}"), InvalidArgument);
  EXPECT_THROW(parse_json("tru"), InvalidArgument);
  EXPECT_THROW(parse_json("1.2.3"), InvalidArgument);
  EXPECT_THROW(parse_json("\"unterminated"), InvalidArgument);
  EXPECT_THROW(parse_json("{} garbage"), InvalidArgument);
  EXPECT_THROW(parse_json(R"("\u12g4")"), InvalidArgument);
}

TEST(Json, ErrorsIncludePosition) {
  try {
    parse_json("{\n  \"a\": ]\n}");
    FAIL() << "expected InvalidArgument";
  } catch (const InvalidArgument& e) {
    EXPECT_NE(std::string(e.what()).find("2:"), std::string::npos);
  }
}

TEST(Json, ErrorPositionsAreExact) {
  EXPECT_EQ(parse_error("{\n  \"a\": ]\n}"), "json: expected a value at 2:8");
  EXPECT_EQ(parse_error("[1,\n 2 x]"), "json: expected ',' at 2:4");
  EXPECT_EQ(parse_error("[1, 2"), "json: unexpected end of input at 1:6");
  EXPECT_EQ(parse_error("[1.2.3]"), "json: malformed number '1.2.3' at 1:7");
  // A missing token is placed where the parser stood before the
  // whitespace in front of it.
  EXPECT_EQ(parse_error("{\"a\"  1}"), "json: expected ':' at 1:5");
  EXPECT_EQ(parse_error("{\"a\":1,  2}"), "json: expected object key at 1:8");
}

TEST(Json, NumberTokensMatchStrtod) {
  // The token is judged as strtod reads it on its own: a leading '+'
  // is accepted, and strtod's hex and inf spellings are not, even when
  // they follow the token in the text.
  EXPECT_EQ(parse_json("+5").as_number(), 5.0);
  EXPECT_EQ(parse_json("[1E+2, -0.5e-1, 5.]").as_array()[0].as_number(), 100.0);
  EXPECT_EQ(parse_json("1e-400").as_number(), 0.0);
  EXPECT_EQ(parse_error("0x10"), "json: trailing characters at 1:2");
  EXPECT_EQ(parse_error("-inf"), "json: malformed number '-' at 1:2");
  EXPECT_EQ(parse_error("1e400"), "json: malformed number '1e400' at 1:6");
  EXPECT_EQ(parse_error("[1-]"), "json: malformed number '1-' at 1:4");
}

TEST(Json, NestingDeeperThanTheCapThrows) {
  // 100k open brackets used to overflow the parser's stack.
  EXPECT_EQ(parse_error(std::string(100000, '[')),
            "json: nesting deeper than 512 at 1:513");
  EXPECT_EQ(parse_error(std::string(100000, '{')),
            "json: expected object key at 1:2");
  std::string objects;
  for (std::size_t i = 0; i <= kJsonMaxDepth; ++i) objects += "{\"a\":";
  EXPECT_EQ(parse_error(objects),
            "json: nesting deeper than 512 at 1:" +
                std::to_string(5 * kJsonMaxDepth + 1));

  const std::string at_cap =
      std::string(kJsonMaxDepth, '[') + std::string(kJsonMaxDepth, ']');
  EXPECT_EQ(dump_json(parse_json(at_cap)), at_cap);
  EXPECT_THROW(parse_json("[" + at_cap + "]"), InvalidArgument);
}

TEST(Json, ValuesAreCompactNodes) {
  if (sizeof(void*) == 8) {
    EXPECT_EQ(sizeof(JsonValue), 24u);
  }
  // Copies share the payload; a moved-from value is null.
  JsonValue array(JsonValue::Array{JsonValue(1.0), JsonValue(std::string("s")),
                                   JsonValue()});
  const JsonValue copy = array;
  EXPECT_EQ(&copy.as_array(), &array.as_array());
  const JsonValue moved = std::move(array);
  EXPECT_TRUE(array.is_null());  // NOLINT(bugprone-use-after-move)
  EXPECT_EQ(dump_json(moved), R"([1,"s",null])");
  EXPECT_TRUE(JsonValue(false).is_bool());
  EXPECT_FALSE(JsonValue(false).as_bool());
  EXPECT_TRUE(JsonValue(std::numeric_limits<double>::quiet_NaN()).is_number());
}

TEST(Json, TypeMismatchesThrow) {
  const auto doc = parse_json(R"({"n": 5})");
  EXPECT_THROW(doc.at("n").as_string(), InvalidArgument);
  EXPECT_THROW(doc.at("n").as_array(), InvalidArgument);
  EXPECT_THROW(doc.at("missing"), InvalidArgument);
  EXPECT_EQ(doc.get("missing"), nullptr);
}

TEST(Json, DefaultingAccessors) {
  const auto doc = parse_json(R"({"x": 2.5, "flag": true, "s": "v"})");
  EXPECT_DOUBLE_EQ(doc.number_or("x", 0.0), 2.5);
  EXPECT_DOUBLE_EQ(doc.number_or("y", 7.0), 7.0);
  EXPECT_TRUE(doc.bool_or("flag", false));
  EXPECT_FALSE(doc.bool_or("other", false));
  EXPECT_EQ(doc.string_or("s", "d"), "v");
  EXPECT_EQ(doc.string_or("t", "d"), "d");
}

TEST(Json, NumberArrayHelper) {
  const auto doc = parse_json(R"({"v": [1, 2.5, -3]})");
  EXPECT_EQ(doc.number_array("v"), (std::vector<double>{1.0, 2.5, -3.0}));
  EXPECT_THROW(parse_json(R"({"v": [1, "x"]})").number_array("v"),
               InvalidArgument);
}

TEST(Json, WhitespaceTolerant) {
  const auto doc = parse_json("  {  \"a\"  :  [ 1 ,  2 ]  }  ");
  EXPECT_EQ(doc.at("a").as_array().size(), 2u);
}

TEST(JsonWriter, ScalarsRoundTrip) {
  EXPECT_EQ(dump_json(parse_json("null")), "null");
  EXPECT_EQ(dump_json(parse_json("true")), "true");
  EXPECT_EQ(dump_json(parse_json("false")), "false");
  EXPECT_EQ(dump_json(parse_json("42")), "42");
  EXPECT_EQ(dump_json(parse_json("-7")), "-7");
  EXPECT_EQ(dump_json(parse_json("\"hi\"")), "\"hi\"");
}

TEST(JsonWriter, NumbersRoundTripExactly) {
  // The writer must emit the shortest decimal form that strtod maps
  // back to the same double — test both pretty and awkward values.
  for (const double value : {0.1, 1.0 / 3.0, 6.02214076e23, 1e-300, -2.5,
                             123456789.123456789, 5e-324}) {
    const JsonValue parsed = parse_json(dump_json(JsonValue(value)));
    EXPECT_EQ(parsed.as_number(), value) << dump_json(JsonValue(value));
  }
}

TEST(JsonWriter, NumbersMatchThePrintfOracleByteForByte) {
  std::size_t checked = 0, mismatches = 0;
  const auto check = [&](double value) {
    if (!std::isfinite(value)) return;
    ++checked;
    const std::string expected = oracle_number(value);
    const std::string written = dump_json(JsonValue(value));
    if (written != expected && ++mismatches <= 5) {
      ADD_FAILURE() << "wrote " << written << ", oracle " << expected;
    }
  };
  const double two53 = 9007199254740992.0;
  for (const double edge :
       {0.0, -0.0, 5e-324, -5e-324, DBL_MIN, std::nextafter(DBL_MIN, 0.0),
        DBL_MAX, -DBL_MAX, DBL_EPSILON, two53, two53 + 1.0,
        std::nextafter(two53, DBL_MAX), 1e16, 1e17, 1e21, 1e22, 1e23,
        4.642441556436866e+16, 0.1, 0.3, 1.0 / 3.0, 123456789.123456789,
        6.02214076e23, 1e-300, 9.5, 0.5, -2.5}) {
    check(edge);
  }
  // Four families, 250k values each: random bit patterns (less the
  // non-finite ones), integers of every magnitude, subnormals and
  // telemetry-like decimals.
  std::mt19937_64 rng(20120618);
  for (int i = 0; i < 250100; ++i) {
    double value = 0.0;
    const std::uint64_t bits = rng();
    std::memcpy(&value, &bits, sizeof(value));
    check(value);
    const auto integer = static_cast<std::int64_t>(rng()) >> (rng() % 64);
    check(static_cast<double>(integer));
    const std::uint64_t subnormal = rng() >> 12;
    std::memcpy(&value, &subnormal, sizeof(value));
    check(value);
    check(static_cast<double>(rng() % 100000000) / 1000.0);
  }
  EXPECT_GE(checked, 1000000u);
  EXPECT_EQ(mismatches, 0u);
}

TEST(JsonWriter, NonFiniteBecomesNull) {
  EXPECT_EQ(dump_json(JsonValue(std::numeric_limits<double>::quiet_NaN())),
            "null");
  EXPECT_EQ(dump_json(JsonValue(std::numeric_limits<double>::infinity())),
            "null");
}

TEST(JsonWriter, EscapesStrings) {
  const std::string raw = "a\"b\\c\nd\te\x01";
  const JsonValue round = parse_json(dump_json(JsonValue(raw)));
  EXPECT_EQ(round.as_string(), raw);
}

TEST(JsonWriter, StructuresRoundTrip) {
  const char* source =
      R"({"name":"gridctl","idcs":[{"mu":2.0},{"mu":1.25}],"empty":[],)"
      R"("nested":{"deep":[1,[2,3]]},"none":{}})";
  const JsonValue doc = parse_json(source);
  const JsonValue round = parse_json(dump_json(doc));
  EXPECT_EQ(round.at("name").as_string(), "gridctl");
  EXPECT_EQ(round.at("idcs").as_array().size(), 2u);
  EXPECT_DOUBLE_EQ(round.at("idcs").as_array()[1].at("mu").as_number(), 1.25);
  EXPECT_TRUE(round.at("empty").as_array().empty());
  EXPECT_TRUE(round.at("none").as_object().empty());
  EXPECT_DOUBLE_EQ(
      round.at("nested").at("deep").as_array()[1].as_array()[1].as_number(),
      3.0);
}

TEST(JsonWriter, CompactHasNoWhitespacePrettyIsIndented) {
  const JsonValue doc = parse_json(R"({"a": [1, 2], "b": {"c": true}})");
  const std::string compact = dump_json(doc);
  EXPECT_EQ(compact.find(' '), std::string::npos);
  EXPECT_EQ(compact.find('\n'), std::string::npos);
  const std::string pretty = dump_json(doc, 2);
  EXPECT_NE(pretty.find("\n  "), std::string::npos);
  // Both forms parse back to the same document.
  EXPECT_EQ(dump_json(parse_json(pretty)), compact);
}

TEST(JsonWriter, WritesFilesThatParseBack) {
  const std::string path = ::testing::TempDir() + "/writer_test.json";
  const JsonValue doc = parse_json(R"({"jobs":[{"ok":true,"cost":12.5}]})");
  write_json_file(path, doc);
  const JsonValue round = parse_json_file(path);
  EXPECT_TRUE(round.at("jobs").as_array()[0].at("ok").as_bool());
  EXPECT_DOUBLE_EQ(round.at("jobs").as_array()[0].at("cost").as_number(),
                   12.5);
}

TEST(JsonWriter, KeysComeOutSorted) {
  // Object storage is a std::map, so serialization order is
  // deterministic (alphabetical) regardless of input order.
  EXPECT_EQ(dump_json(parse_json(R"({"z":1,"a":2,"m":3})")),
            R"({"a":2,"m":3,"z":1})");
}

// A quadratic parser takes minutes on 4 MB; the suite's ctest TIMEOUT
// fails it without a wall-clock assertion here.
TEST(JsonLarge, ParsesAFourMegabyteCheckpointShapedDocument) {
  const std::string text = large_checkpoint_text();
  ASSERT_GT(text.size(), 4000000u);
  const JsonValue doc = parse_json(text);
  ASSERT_EQ(doc.as_object().size(), 8u);
  const auto& rows = doc.at("series_7").as_array();
  ASSERT_EQ(rows.size(), 1500u);
  EXPECT_EQ(rows.back().as_array().size(), 16u);
  EXPECT_EQ(dump_json(doc, 1), text);
}

TEST(JsonLarge, ErrorOnTheLastLineReportsItsPosition) {
  const std::string text = large_checkpoint_text();
  const std::size_t lines =
      static_cast<std::size_t>(std::count(text.begin(), text.end(), '\n')) + 1;
  EXPECT_EQ(parse_error(text + " x"),
            "json: trailing characters at " + std::to_string(lines) + ":3");
  std::string unclosed = text;
  unclosed.back() = ']';
  EXPECT_EQ(parse_error(unclosed),
            "json: expected ',' at " + std::to_string(lines) + ":1");
}

}  // namespace
}  // namespace gridctl
