#include "xml/xml.h"

#include <gtest/gtest.h>

#include "common/prng.h"

namespace quarry::xml {
namespace {

TEST(XmlParseTest, SimpleElement) {
  auto r = Parse("<root/>");
  ASSERT_TRUE(r.ok()) << r.status();
  EXPECT_EQ((*r)->name(), "root");
  EXPECT_TRUE((*r)->children().empty());
}

TEST(XmlParseTest, DeclarationAndWhitespace) {
  auto r = Parse("<?xml version=\"1.0\"?>\n  <a>  </a>\n");
  ASSERT_TRUE(r.ok()) << r.status();
  EXPECT_EQ((*r)->name(), "a");
  EXPECT_EQ((*r)->text(), "");
}

TEST(XmlParseTest, Attributes) {
  auto r = Parse("<concept id=\"Part_p_nameATRIBUT\" kind='dim'/>");
  ASSERT_TRUE(r.ok()) << r.status();
  EXPECT_EQ((*r)->AttrOr("id"), "Part_p_nameATRIBUT");
  EXPECT_EQ((*r)->AttrOr("kind"), "dim");
  EXPECT_EQ((*r)->AttrOr("missing", "x"), "x");
  EXPECT_TRUE((*r)->HasAttr("id"));
  EXPECT_FALSE((*r)->HasAttr("missing"));
}

TEST(XmlParseTest, NestedChildrenAndText) {
  const char* doc =
      "<design><metadata>m</metadata><edges><edge>"
      "<from>DATASTORE_Partsupp</from><to>EXTRACTION_Partsupp</to>"
      "<enabled>Y</enabled></edge></edges></design>";
  auto r = Parse(doc);
  ASSERT_TRUE(r.ok()) << r.status();
  const Element& root = **r;
  EXPECT_EQ(root.ChildText("metadata"), "m");
  const Element* edges = root.FirstChild("edges");
  ASSERT_NE(edges, nullptr);
  auto edge_list = edges->Children("edge");
  ASSERT_EQ(edge_list.size(), 1u);
  EXPECT_EQ(edge_list[0]->ChildText("from"), "DATASTORE_Partsupp");
  EXPECT_EQ(edge_list[0]->ChildText("enabled"), "Y");
}

TEST(XmlParseTest, EntityDecoding) {
  auto r = Parse("<f>a &lt; b &amp;&amp; c &gt; d &quot;q&quot; &apos;</f>");
  ASSERT_TRUE(r.ok()) << r.status();
  EXPECT_EQ((*r)->text(), "a < b && c > d \"q\" '");
}

TEST(XmlParseTest, NumericCharacterReferences) {
  auto r = Parse("<f>&#65;&#x42;</f>");
  ASSERT_TRUE(r.ok()) << r.status();
  EXPECT_EQ((*r)->text(), "AB");
}

TEST(XmlParseTest, CommentsAreSkipped) {
  auto r = Parse("<!-- head --><a><!-- inner --><b/><!-- tail --></a>");
  ASSERT_TRUE(r.ok()) << r.status();
  EXPECT_EQ((*r)->children().size(), 1u);
}

TEST(XmlParseTest, CdataBecomesText) {
  auto r = Parse("<f><![CDATA[1 < 2 & so on]]></f>");
  ASSERT_TRUE(r.ok()) << r.status();
  EXPECT_EQ((*r)->text(), "1 < 2 & so on");
}

TEST(XmlParseTest, DoctypeSkipped) {
  auto r = Parse("<!DOCTYPE cube SYSTEM \"xrq.dtd\"><cube/>");
  ASSERT_TRUE(r.ok()) << r.status();
  EXPECT_EQ((*r)->name(), "cube");
}

TEST(XmlParseTest, ErrorOnMismatchedTags) {
  EXPECT_TRUE(Parse("<a><b></a></b>").status().IsParseError());
}

TEST(XmlParseTest, ErrorOnUnterminatedElement) {
  EXPECT_TRUE(Parse("<a><b>").status().IsParseError());
}

TEST(XmlParseTest, ErrorOnGarbage) {
  EXPECT_TRUE(Parse("plain text").status().IsParseError());
  EXPECT_TRUE(Parse("").status().IsParseError());
}

TEST(XmlParseTest, ErrorOnTrailingContent) {
  EXPECT_TRUE(Parse("<a/><b/>").status().IsParseError());
}

TEST(XmlParseTest, ErrorOnUnknownEntity) {
  EXPECT_TRUE(Parse("<a>&bogus;</a>").status().IsParseError());
}

TEST(XmlWriteTest, EscapesSpecialCharacters) {
  Element root("f");
  root.set_text("a<b&c>\"d'");
  root.SetAttr("x", "1<2");
  std::string out = Write(root);
  EXPECT_NE(out.find("a&lt;b&amp;c&gt;&quot;d&apos;"), std::string::npos);
  EXPECT_NE(out.find("x=\"1&lt;2\""), std::string::npos);
}

TEST(XmlWriteTest, PrettyPrintsNestedStructure) {
  Element root("MDschema");
  Element* facts = root.AddChild("facts");
  Element* fact = facts->AddChild("fact");
  fact->AddTextChild("name", "fact_table_revenue");
  std::string out = Write(root);
  EXPECT_NE(out.find("  <facts>"), std::string::npos);
  EXPECT_NE(out.find("<name>fact_table_revenue</name>"), std::string::npos);
}

TEST(XmlRoundtripTest, WriteThenParsePreservesTree) {
  Element root("design");
  root.SetAttr("version", "1.0");
  Element* nodes = root.AddChild("nodes");
  for (int i = 0; i < 5; ++i) {
    Element* node = nodes->AddChild("node");
    node->AddTextChild("name", "op_" + std::to_string(i));
    node->AddTextChild("type", i % 2 == 0 ? "Selection" : "Join");
    node->SetAttr("id", std::to_string(i));
  }
  std::string text = Write(root);
  auto parsed = Parse(text);
  ASSERT_TRUE(parsed.ok()) << parsed.status();
  EXPECT_TRUE(DeepEqual(root, **parsed));
}

TEST(XmlElementTest, CloneIsDeepAndEqual) {
  Element root("a");
  root.AddTextChild("b", "t");
  root.SetAttr("k", "v");
  auto copy = root.Clone();
  EXPECT_TRUE(DeepEqual(root, *copy));
  copy->FirstChild("b")->set_text("changed");
  EXPECT_FALSE(DeepEqual(root, *copy));
  EXPECT_EQ(root.ChildText("b"), "t");
}

TEST(XmlElementTest, SubtreeSizeCountsAllElements) {
  Element root("a");
  root.AddChild("b")->AddChild("c");
  root.AddChild("d");
  EXPECT_EQ(root.SubtreeSize(), 4u);
}

TEST(XmlElementTest, SetAttrOverwrites) {
  Element e("a");
  e.SetAttr("k", "1");
  e.SetAttr("k", "2");
  EXPECT_EQ(e.attributes().size(), 1u);
  EXPECT_EQ(e.AttrOr("k"), "2");
}

// Property: a randomly generated tree survives write->parse unchanged.
class XmlRoundtripProperty : public ::testing::TestWithParam<uint64_t> {};

void BuildRandomTree(quarry::Prng* rng, int depth, Element* node) {
  int attrs = static_cast<int>(rng->Uniform(0, 3));
  for (int i = 0; i < attrs; ++i) {
    node->SetAttr(std::string("a").append(std::to_string(i)),
                  rng->Word(5) + "<&>\"'");
  }
  if (depth >= 4 || rng->Chance(0.3)) {
    node->set_text(rng->Word(8) + " & <text> " + rng->Word(3));
    return;
  }
  int kids = static_cast<int>(rng->Uniform(1, 4));
  for (int i = 0; i < kids; ++i) {
    BuildRandomTree(rng, depth + 1,
                    node->AddChild(std::string("n").append(rng->Word(4))));
  }
}

TEST_P(XmlRoundtripProperty, RandomTreeRoundtrips) {
  quarry::Prng rng(GetParam());
  Element root("root");
  BuildRandomTree(&rng, 0, &root);
  auto parsed = Parse(Write(root));
  ASSERT_TRUE(parsed.ok()) << parsed.status();
  EXPECT_TRUE(DeepEqual(root, **parsed));
  // Compact output must round-trip too.
  auto parsed_compact = Parse(Write(root, /*pretty=*/false));
  ASSERT_TRUE(parsed_compact.ok()) << parsed_compact.status();
  EXPECT_TRUE(DeepEqual(root, **parsed_compact));
}

INSTANTIATE_TEST_SUITE_P(Seeds, XmlRoundtripProperty,
                         ::testing::Range<uint64_t>(0, 25));

// ---- hostile-input hardening (ParseLimits) --------------------------------

TEST(XmlLimitsTest, BillionTagsBombIsRefusedNotOverflowed) {
  // 100k nested opens would blow the stack in a naive recursive parser;
  // the depth limit turns it into a structured error.
  constexpr int kDepth = 100000;
  std::string bomb;
  bomb.reserve(kDepth * 3);
  for (int i = 0; i < kDepth; ++i) bomb += "<a>";
  auto parsed = Parse(bomb);
  ASSERT_FALSE(parsed.ok());
  EXPECT_TRUE(parsed.status().IsResourceExhausted()) << parsed.status();
  EXPECT_NE(parsed.status().message().find("depth"), std::string::npos);
}

TEST(XmlLimitsTest, DepthJustUnderTheLimitParses) {
  ParseLimits limits;
  limits.max_depth = 8;
  std::string doc;
  for (int i = 0; i < 8; ++i) doc += "<a>";
  for (int i = 0; i < 8; ++i) doc += "</a>";
  EXPECT_TRUE(Parse(doc, limits).ok());
  std::string too_deep = "<a>" + doc + "</a>";
  auto over = Parse(too_deep, limits);
  ASSERT_FALSE(over.ok());
  EXPECT_TRUE(over.status().IsResourceExhausted()) << over.status();
}

TEST(XmlLimitsTest, OversizedInputIsRefusedUpfront) {
  ParseLimits limits;
  limits.max_input_bytes = 16;
  auto parsed = Parse("<root>way past sixteen bytes</root>", limits);
  ASSERT_FALSE(parsed.ok());
  EXPECT_TRUE(parsed.status().IsResourceExhausted()) << parsed.status();
  EXPECT_TRUE(Parse("<r/>", limits).ok());
}

TEST(XmlLimitsTest, ZeroDisablesALimit) {
  ParseLimits limits;
  limits.max_depth = 0;
  limits.max_input_bytes = 0;
  std::string doc;
  for (int i = 0; i < 300; ++i) doc += "<a>";
  for (int i = 0; i < 300; ++i) doc += "</a>";
  EXPECT_TRUE(Parse(doc, limits).ok());
}

TEST(XmlLimitsTest, TruncatedDocumentIsAParseError) {
  auto parsed = Parse("<root><child>text");
  ASSERT_FALSE(parsed.ok());
  EXPECT_TRUE(parsed.status().IsParseError()) << parsed.status();
}

}  // namespace
}  // namespace quarry::xml
