#include "json/json.h"

#include <gtest/gtest.h>

#include "common/prng.h"
#include "json/xml_json.h"
#include "xml/xml.h"

namespace quarry::json {
namespace {

TEST(JsonParseTest, Scalars) {
  EXPECT_TRUE(Parse("null")->is_null());
  EXPECT_TRUE(Parse("true")->as_bool());
  EXPECT_FALSE(Parse("false")->as_bool());
  EXPECT_EQ(Parse("42")->as_int(), 42);
  EXPECT_EQ(Parse("-7")->as_int(), -7);
  EXPECT_DOUBLE_EQ(Parse("3.5")->as_double(), 3.5);
  EXPECT_DOUBLE_EQ(Parse("1e3")->as_double(), 1000.0);
  EXPECT_EQ(Parse("\"hi\"")->as_string(), "hi");
}

TEST(JsonParseTest, IntegerVsDoubleDistinction) {
  EXPECT_TRUE(Parse("10")->is_int());
  EXPECT_TRUE(Parse("10.0")->is_double());
  EXPECT_DOUBLE_EQ(Parse("10")->as_double(), 10.0);
}

TEST(JsonParseTest, NestedStructure) {
  auto r = Parse(R"({"kind":"xmd","ids":[1,2,3],"meta":{"ok":true}})");
  ASSERT_TRUE(r.ok()) << r.status();
  EXPECT_EQ(r->GetString("kind"), "xmd");
  const Value* ids = r->Find("ids");
  ASSERT_NE(ids, nullptr);
  ASSERT_EQ(ids->as_array().size(), 3u);
  EXPECT_EQ(ids->as_array()[2].as_int(), 3);
  const Value* meta = r->Find("meta");
  ASSERT_NE(meta, nullptr);
  EXPECT_TRUE(meta->Find("ok")->as_bool());
}

TEST(JsonParseTest, StringEscapes) {
  auto r = Parse(R"("a\"b\\c\nd\teA")");
  ASSERT_TRUE(r.ok()) << r.status();
  EXPECT_EQ(r->as_string(), "a\"b\\c\nd\teA");
}

TEST(JsonParseTest, Errors) {
  EXPECT_TRUE(Parse("").status().IsParseError());
  EXPECT_TRUE(Parse("{").status().IsParseError());
  EXPECT_TRUE(Parse("[1,]").status().IsParseError());
  EXPECT_TRUE(Parse("{\"a\":1,}").status().IsParseError());
  EXPECT_TRUE(Parse("\"unterminated").status().IsParseError());
  EXPECT_TRUE(Parse("tru").status().IsParseError());
  EXPECT_TRUE(Parse("1 2").status().IsParseError());
}

TEST(JsonWriteTest, CompactOutput) {
  Object obj;
  obj.emplace_back("a", Value(1));
  obj.emplace_back("b", Value(Array{Value(true), Value(nullptr)}));
  EXPECT_EQ(Write(Value(std::move(obj))), R"({"a":1,"b":[true,null]})");
}

TEST(JsonWriteTest, PreservesKeyOrder) {
  auto v = Parse(R"({"z":1,"a":2,"m":3})");
  ASSERT_TRUE(v.ok());
  EXPECT_EQ(Write(*v), R"({"z":1,"a":2,"m":3})");
}

TEST(JsonWriteTest, EscapesControlCharacters) {
  std::string out = Write(Value(std::string("line1\nline2\x01")));
  EXPECT_EQ(out, "\"line1\\nline2\\u0001\"");
}

TEST(JsonValueTest, SetOverwritesAndAppends) {
  Value v;
  v.Set("a", Value(1));
  v.Set("b", Value(2));
  v.Set("a", Value(3));
  EXPECT_EQ(v.as_object().size(), 2u);
  EXPECT_EQ(v.Find("a")->as_int(), 3);
}

TEST(JsonRoundtripTest, ParseWriteParseIsStable) {
  const char* doc =
      R"({"_id":"ir-1","kind":"xrq","doc":{"tag":"cube","children":[)"
      R"({"tag":"measures","text":"revenue"}]},"n":-12,"d":0.25})";
  auto v1 = Parse(doc);
  ASSERT_TRUE(v1.ok()) << v1.status();
  std::string w1 = Write(*v1);
  auto v2 = Parse(w1);
  ASSERT_TRUE(v2.ok());
  EXPECT_EQ(*v1, *v2);
  EXPECT_EQ(w1, Write(*v2));
}

TEST(XmlJsonBridgeTest, SimpleConversion) {
  auto root = xml::Parse("<cube id=\"c1\"><measures>revenue</measures></cube>");
  ASSERT_TRUE(root.ok());
  Value v = XmlToJson(**root);
  EXPECT_EQ(v.GetString("tag"), "cube");
  EXPECT_EQ(v.Find("attrs")->GetString("id"), "c1");
  auto back = JsonToXml(v);
  ASSERT_TRUE(back.ok()) << back.status();
  EXPECT_TRUE(xml::DeepEqual(**root, **back));
}

TEST(XmlJsonBridgeTest, RejectsMalformedValues) {
  EXPECT_TRUE(JsonToXml(Value(1)).status().IsInvalidArgument());
  EXPECT_TRUE(JsonToXml(*Parse(R"({"noTag":1})")).status().IsInvalidArgument());
  EXPECT_TRUE(
      JsonToXml(*Parse(R"({"tag":"a","attrs":{"k":1}})")).status()
          .IsInvalidArgument());
  EXPECT_TRUE(
      JsonToXml(*Parse(R"({"tag":"a","children":{}})")).status()
          .IsInvalidArgument());
}

// Property: random XML trees survive XML -> JSON -> XML (the paper's
// "generic XML-JSON-XML parser" guarantee for the metadata repository).
class XmlJsonRoundtripProperty : public ::testing::TestWithParam<uint64_t> {};

void BuildRandomTree(quarry::Prng* rng, int depth, xml::Element* node) {
  int attrs = static_cast<int>(rng->Uniform(0, 2));
  for (int i = 0; i < attrs; ++i) {
    node->SetAttr(std::string("a").append(std::to_string(i)), rng->Word(6));
  }
  if (depth >= 3 || rng->Chance(0.4)) {
    node->set_text(rng->Word(10));
    return;
  }
  int kids = static_cast<int>(rng->Uniform(1, 3));
  for (int i = 0; i < kids; ++i) {
    BuildRandomTree(rng, depth + 1,
                    node->AddChild(std::string("tag").append(rng->Word(3))));
  }
}

TEST_P(XmlJsonRoundtripProperty, TreeSurvivesBridge) {
  quarry::Prng rng(GetParam() * 977 + 13);
  xml::Element root("root");
  BuildRandomTree(&rng, 0, &root);
  Value mid = XmlToJson(root);
  // The JSON leg itself must round-trip through text.
  auto reparsed = Parse(Write(mid));
  ASSERT_TRUE(reparsed.ok());
  EXPECT_EQ(mid, *reparsed);
  auto back = JsonToXml(*reparsed);
  ASSERT_TRUE(back.ok()) << back.status();
  EXPECT_TRUE(xml::DeepEqual(root, **back));
}

INSTANTIATE_TEST_SUITE_P(Seeds, XmlJsonRoundtripProperty,
                         ::testing::Range<uint64_t>(0, 25));

// ---- hostile-input hardening (ParseLimits) --------------------------------

TEST(JsonLimitsTest, DeepNestingBombIsRefusedNotOverflowed) {
  // 100k unclosed arrays would blow the stack in a naive recursive
  // parser; the depth limit turns it into a structured error.
  std::string bomb(100000, '[');
  auto parsed = json::Parse(bomb);
  ASSERT_FALSE(parsed.ok());
  EXPECT_TRUE(parsed.status().IsResourceExhausted()) << parsed.status();
  EXPECT_NE(parsed.status().message().find("depth"), std::string::npos);
}

TEST(JsonLimitsTest, DepthJustUnderTheLimitParses) {
  ParseLimits limits;
  limits.max_depth = 8;
  std::string doc = std::string(8, '[') + std::string(8, ']');
  EXPECT_TRUE(json::Parse(doc, limits).ok());
  auto over = json::Parse("[" + doc + "]", limits);
  ASSERT_FALSE(over.ok());
  EXPECT_TRUE(over.status().IsResourceExhausted()) << over.status();
}

TEST(JsonLimitsTest, MixedObjectArrayNestingCountsBoth) {
  ParseLimits limits;
  limits.max_depth = 4;
  EXPECT_TRUE(json::Parse(R"({"a":[{"b":1}]})", limits).ok());
  auto over = json::Parse(R"({"a":[{"b":[{"c":1}]}]})", limits);
  ASSERT_FALSE(over.ok());
  EXPECT_TRUE(over.status().IsResourceExhausted()) << over.status();
}

TEST(JsonLimitsTest, OversizedInputIsRefusedUpfront) {
  ParseLimits limits;
  limits.max_input_bytes = 8;
  auto parsed = json::Parse(R"({"key": "far past eight bytes"})", limits);
  ASSERT_FALSE(parsed.ok());
  EXPECT_TRUE(parsed.status().IsResourceExhausted()) << parsed.status();
  EXPECT_TRUE(json::Parse("[1,2]", limits).ok());
}

TEST(JsonLimitsTest, TruncatedDocumentIsAParseError) {
  for (const char* doc : {"{\"a\": 1", "[1, 2", "\"unterminated", "{\"a\":"}) {
    auto parsed = json::Parse(doc);
    ASSERT_FALSE(parsed.ok()) << doc;
    EXPECT_TRUE(parsed.status().IsParseError()) << parsed.status();
  }
}

}  // namespace
}  // namespace quarry::json
