#include <gtest/gtest.h>

#include <ostream>

#include "json/json_parser.h"
#include "json/json_value.h"
#include "json/json_writer.h"

namespace rstore {
namespace json {
namespace {

TEST(JsonValueTest, TypePredicates) {
  EXPECT_TRUE(Value().is_null());
  EXPECT_TRUE(Value(true).is_bool());
  EXPECT_TRUE(Value(int64_t{5}).is_int());
  EXPECT_TRUE(Value(1.5).is_double());
  EXPECT_TRUE(Value(int64_t{5}).is_number());
  EXPECT_TRUE(Value(1.5).is_number());
  EXPECT_TRUE(Value("s").is_string());
  EXPECT_TRUE(Value::MakeArray().is_array());
  EXPECT_TRUE(Value::MakeObject().is_object());
}

TEST(JsonValueTest, NumericAccessors) {
  EXPECT_EQ(Value(int64_t{42}).as_int(), 42);
  EXPECT_DOUBLE_EQ(Value(int64_t{42}).as_double(), 42.0);
  EXPECT_DOUBLE_EQ(Value(2.5).as_double(), 2.5);
}

TEST(JsonValueTest, ObjectAccess) {
  Value obj = Value::MakeObject();
  obj["name"] = Value("alice");
  obj["age"] = Value(int64_t{30});
  EXPECT_EQ(obj.size(), 2u);
  ASSERT_NE(obj.Find("name"), nullptr);
  EXPECT_EQ(obj.Find("name")->as_string(), "alice");
  EXPECT_EQ(obj.Find("missing"), nullptr);
  EXPECT_EQ(Value(int64_t{1}).Find("x"), nullptr);
}

TEST(JsonValueTest, Equality) {
  Value a = Value::MakeObject();
  a["k"] = Value(int64_t{1});
  Value b = Value::MakeObject();
  b["k"] = Value(int64_t{1});
  EXPECT_EQ(a, b);
  b["k"] = Value(int64_t{2});
  EXPECT_NE(a, b);
}

TEST(JsonParserTest, Scalars) {
  EXPECT_TRUE(Parse("null")->is_null());
  EXPECT_EQ(Parse("true")->as_bool(), true);
  EXPECT_EQ(Parse("false")->as_bool(), false);
  EXPECT_EQ(Parse("42")->as_int(), 42);
  EXPECT_EQ(Parse("-17")->as_int(), -17);
  EXPECT_DOUBLE_EQ(Parse("3.25")->as_double(), 3.25);
  EXPECT_DOUBLE_EQ(Parse("1e3")->as_double(), 1000.0);
  EXPECT_DOUBLE_EQ(Parse("-2.5E-2")->as_double(), -0.025);
  EXPECT_EQ(Parse("\"hi\"")->as_string(), "hi");
}

TEST(JsonParserTest, IntegerOverflowBecomesDouble) {
  auto r = Parse("99999999999999999999999999");
  ASSERT_TRUE(r.ok());
  EXPECT_TRUE(r->is_double());
}

TEST(JsonParserTest, NestedStructures) {
  auto r = Parse(R"({"a": [1, 2, {"b": null}], "c": {"d": true}})");
  ASSERT_TRUE(r.ok());
  const Value& v = *r;
  ASSERT_TRUE(v.is_object());
  const Value* a = v.Find("a");
  ASSERT_NE(a, nullptr);
  ASSERT_TRUE(a->is_array());
  EXPECT_EQ(a->size(), 3u);
  EXPECT_EQ(a->as_array()[0].as_int(), 1);
  EXPECT_TRUE(a->as_array()[2].Find("b")->is_null());
  EXPECT_TRUE(v.Find("c")->Find("d")->as_bool());
}

TEST(JsonParserTest, StringEscapes) {
  auto r = Parse(R"("a\"b\\c\/d\b\f\n\r\t")");
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r->as_string(), "a\"b\\c/d\b\f\n\r\t");
}

TEST(JsonParserTest, UnicodeEscapes) {
  EXPECT_EQ(Parse(R"("A")")->as_string(), "A");
  EXPECT_EQ(Parse(R"("é")")->as_string(), "\xc3\xa9");       // é
  EXPECT_EQ(Parse(R"("€")")->as_string(), "\xe2\x82\xac");   // €
  // Surrogate pair: U+1F600.
  EXPECT_EQ(Parse(R"("😀")")->as_string(), "\xf0\x9f\x98\x80");
}

TEST(JsonParserTest, WhitespaceHandling) {
  auto r = Parse(" \t\n { \"a\" : [ 1 , 2 ] } \r\n ");
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r->Find("a")->size(), 2u);
}

TEST(JsonParserTest, EmptyContainers) {
  EXPECT_EQ(Parse("[]")->size(), 0u);
  EXPECT_EQ(Parse("{}")->size(), 0u);
  EXPECT_EQ(Parse("[ ]")->size(), 0u);
  EXPECT_EQ(Parse("{ }")->size(), 0u);
}

struct BadInput {
  const char* text;
  const char* why;
};

// ctest discovery names each case after its printed parameter. gtest's
// default printer would dump the two pointers, whose bytes change with every
// load address, so print the (unique) reason instead.
void PrintTo(const BadInput& in, std::ostream* os) { *os << in.why; }

class JsonParserErrorTest : public ::testing::TestWithParam<BadInput> {};

TEST_P(JsonParserErrorTest, RejectsMalformedInput) {
  auto r = Parse(GetParam().text);
  EXPECT_FALSE(r.ok()) << GetParam().why;
  EXPECT_TRUE(r.status().IsCorruption());
}

INSTANTIATE_TEST_SUITE_P(
    Malformed, JsonParserErrorTest,
    ::testing::Values(
        BadInput{"", "empty input"},
        BadInput{"nul", "truncated null literal"},
        BadInput{"tru", "truncated true literal"},
        BadInput{"[1,", "unterminated array"},
        BadInput{"[1 2]", "missing comma"},
        BadInput{"{\"a\":}", "missing value"},
        BadInput{"{\"a\" 1}", "missing colon"},
        BadInput{"{a: 1}", "unquoted key"},
        BadInput{"\"abc", "unterminated string"},
        BadInput{"\"\\x\"", "bad escape"},
        BadInput{"\"\\u12\"", "truncated unicode escape"},
        BadInput{"\"\\ud800\"", "unpaired surrogate"},
        BadInput{"01", "trailing garbage"}, BadInput{"1.2.3", "bad number"},
        BadInput{"1e", "bad exponent"}, BadInput{"-", "lone minus"},
        BadInput{"[1] extra", "trailing characters"},
        BadInput{"\"a\tb\"", "raw control char"}));

TEST(JsonParserTest, DeepNestingRejected) {
  std::string deep(1000, '[');
  deep += std::string(1000, ']');
  EXPECT_FALSE(Parse(deep).ok());
}

TEST(JsonWriterTest, CompactOutput) {
  auto v = Parse(R"({ "b" : 1, "a" : [true, null, "x"] })");
  ASSERT_TRUE(v.ok());
  // Keys sorted (std::map), no whitespace.
  EXPECT_EQ(WriteCompact(*v), R"({"a":[true,null,"x"],"b":1})");
}

TEST(JsonWriterTest, EscapesSpecialCharacters) {
  Value v(std::string("a\"b\\c\nd\x01"));
  EXPECT_EQ(WriteCompact(v), "\"a\\\"b\\\\c\\nd\\u0001\"");
}

TEST(JsonWriterTest, RoundTripPreservesValue) {
  const char* docs[] = {
      R"({"patient":{"id":123,"vitals":[98.6,72],"notes":"stable"}})",
      R"([1,2.5,-3,"x",null,true,{"nested":[{}]}])",
      R"({"empty_obj":{},"empty_arr":[]})",
  };
  for (const char* doc : docs) {
    auto v1 = Parse(doc);
    ASSERT_TRUE(v1.ok()) << doc;
    std::string out = WriteCompact(*v1);
    auto v2 = Parse(out);
    ASSERT_TRUE(v2.ok()) << out;
    EXPECT_EQ(*v1, *v2) << doc;
    // Compact output is a fixed point.
    EXPECT_EQ(WriteCompact(*v2), out);
  }
}

TEST(JsonWriterTest, PrettyParsesBack) {
  auto v = Parse(R"({"a":[1,{"b":2}],"c":"d"})");
  ASSERT_TRUE(v.ok());
  std::string pretty = WritePretty(*v);
  EXPECT_NE(pretty.find('\n'), std::string::npos);
  auto v2 = Parse(pretty);
  ASSERT_TRUE(v2.ok());
  EXPECT_EQ(*v, *v2);
}

TEST(JsonWriterTest, EqualValuesSerializeIdentically) {
  // Key order in the source text must not matter (map canonicalizes).
  auto v1 = Parse(R"({"z":1,"a":2})");
  auto v2 = Parse(R"({"a":2,"z":1})");
  EXPECT_EQ(WriteCompact(*v1), WriteCompact(*v2));
}

}  // namespace
}  // namespace json
}  // namespace rstore
