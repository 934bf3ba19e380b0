#include <gtest/gtest.h>

#include "mdschema/complexity.h"
#include "mdschema/md_schema.h"
#include "mdschema/validator.h"
#include "ontology/tpch_ontology.h"
#include "xml/xml.h"

namespace quarry::md {
namespace {

using storage::DataType;

// The paper's Fig. 3/4 running example: revenue per part and supplier,
// sliced by nation.
MdSchema MakeRevenueSchema() {
  MdSchema schema("revenue");
  Dimension part;
  part.name = "Part";
  part.requirement_ids = {"ir_revenue"};
  part.levels.push_back(
      {"Part", "Part", {{"p_name", DataType::kString, "Part.p_name"}}, {}});
  EXPECT_TRUE(schema.AddDimension(part).ok());

  Dimension supplier;
  supplier.name = "Supplier";
  supplier.requirement_ids = {"ir_revenue"};
  Level supplier_level{
      "Supplier", "Supplier",
      {{"s_name", DataType::kString, "Supplier.s_name"}},
      {}};
  Level nation_level{"Nation", "Nation",
                     {{"n_name", DataType::kString, "Nation.n_name"}},
                     {}};
  Level region_level{"Region", "Region",
                     {{"r_name", DataType::kString, "Region.r_name"}},
                     {}};
  supplier.levels = {supplier_level, nation_level, region_level};
  EXPECT_TRUE(schema.AddDimension(supplier).ok());

  Fact fact;
  fact.name = "fact_table_revenue";
  fact.concept_id = "Lineitem";
  fact.requirement_ids = {"ir_revenue"};
  Measure revenue;
  revenue.name = "revenue";
  revenue.expression =
      "Lineitem.l_extendedprice * (1 - Lineitem.l_discount)";
  revenue.aggregation = AggFunc::kSum;
  revenue.requirement_ids = {"ir_revenue"};
  fact.measures.push_back(revenue);
  fact.dimension_refs = {{"Part", "Part"}, {"Supplier", "Supplier"}};
  EXPECT_TRUE(schema.AddFact(fact).ok());
  return schema;
}

TEST(MdSchemaTest, AddAndLookup) {
  MdSchema schema = MakeRevenueSchema();
  EXPECT_TRUE(schema.GetFact("fact_table_revenue").ok());
  EXPECT_TRUE(schema.GetDimension("Part").ok());
  EXPECT_TRUE(schema.GetFact("nope").status().IsNotFound());
  Fact same_fact;
  same_fact.name = "fact_table_revenue";
  EXPECT_TRUE(schema.AddFact(same_fact).IsAlreadyExists());
  Dimension same_dimension;
  same_dimension.name = "Part";
  EXPECT_TRUE(schema.AddDimension(same_dimension).IsAlreadyExists());
}

TEST(MdSchemaTest, FindLevelAndMeasure) {
  MdSchema schema = MakeRevenueSchema();
  const Dimension& d = **schema.GetDimension("Supplier");
  EXPECT_NE(d.FindLevel("Nation"), nullptr);
  EXPECT_EQ(d.FindLevel("Ghost"), nullptr);
  const Fact& f = **schema.GetFact("fact_table_revenue");
  EXPECT_NE(f.FindMeasure("revenue"), nullptr);
  EXPECT_EQ(f.FindMeasure("profit"), nullptr);
  EXPECT_EQ(d.levels[0].IdColumn(), "SupplierID");
}

TEST(MdSchemaTest, RequirementIdsAggregate) {
  MdSchema schema = MakeRevenueSchema();
  EXPECT_EQ(schema.RequirementIds(),
            (std::set<std::string>{"ir_revenue"}));
}

TEST(MdSchemaTest, PruneRequirementEmptiesSchema) {
  MdSchema schema = MakeRevenueSchema();
  size_t removed = schema.PruneRequirement("ir_revenue");
  EXPECT_GT(removed, 0u);
  EXPECT_TRUE(schema.facts().empty());
  EXPECT_TRUE(schema.dimensions().empty());
}

TEST(MdSchemaTest, PruneKeepsSharedElements) {
  MdSchema schema = MakeRevenueSchema();
  // Part dimension and the fact also serve ir2; the measure stays too.
  (*schema.GetMutableDimension("Part"))->requirement_ids.insert("ir2");
  Fact* fact = *schema.GetMutableFact("fact_table_revenue");
  fact->requirement_ids.insert("ir2");
  fact->measures[0].requirement_ids.insert("ir2");
  schema.PruneRequirement("ir_revenue");
  EXPECT_TRUE(schema.GetFact("fact_table_revenue").ok());
  EXPECT_TRUE(schema.GetDimension("Part").ok());
  // Supplier served only ir_revenue but is still referenced by the fact.
  EXPECT_TRUE(schema.GetDimension("Supplier").ok());
}

TEST(MdSchemaTest, PruneDropsFactWhenAllMeasuresGone) {
  MdSchema schema = MakeRevenueSchema();
  Fact* fact = *schema.GetMutableFact("fact_table_revenue");
  fact->requirement_ids.insert("ir2");  // Fact shared, measure not.
  schema.PruneRequirement("ir_revenue");
  // The only measure served ir_revenue exclusively -> fact must go.
  EXPECT_TRUE(schema.GetFact("fact_table_revenue").status().IsNotFound());
}

TEST(MdSchemaTest, PruneDropsUnreferencedLevels) {
  MdSchema schema = MakeRevenueSchema();
  // The Supplier hierarchy's Nation/Region levels serve only ir_geo;
  // the Supplier base level serves ir_revenue (and is fact-referenced).
  Dimension* d = *schema.GetMutableDimension("Supplier");
  d->levels[0].requirement_ids = {"ir_revenue"};
  d->levels[1].requirement_ids = {"ir_geo"};
  d->levels[2].requirement_ids = {"ir_geo"};
  d->requirement_ids = {"ir_revenue", "ir_geo"};
  schema.PruneRequirement("ir_geo");
  const Dimension& after = **schema.GetDimension("Supplier");
  ASSERT_EQ(after.levels.size(), 1u);
  EXPECT_EQ(after.levels[0].name, "Supplier");
  // Pruning the remaining requirement empties the schema.
  schema.PruneRequirement("ir_revenue");
  EXPECT_TRUE(schema.dimensions().empty());
}

TEST(MdSchemaTest, PruneKeepsFactReferencedLevelWithEmptyTrace) {
  MdSchema schema = MakeRevenueSchema();
  Dimension* d = *schema.GetMutableDimension("Part");
  d->levels[0].requirement_ids = {"ir_geo"};  // trace will empty out...
  // ...but the fact still references Part@Part, so the level must stay.
  Fact* fact = *schema.GetMutableFact("fact_table_revenue");
  fact->requirement_ids.insert("ir_other");
  fact->measures[0].requirement_ids.insert("ir_other");
  (*schema.GetMutableDimension("Supplier"))->requirement_ids.insert(
      "ir_other");
  d->requirement_ids.insert("ir_other");
  schema.PruneRequirement("ir_geo");
  const Dimension& after = **schema.GetDimension("Part");
  ASSERT_EQ(after.levels.size(), 1u);
}

TEST(XmdTest, RoundtripPreservesSchema) {
  MdSchema schema = MakeRevenueSchema();
  auto doc = schema.ToXml();
  auto parsed = MdSchema::FromXml(*doc);
  ASSERT_TRUE(parsed.ok()) << parsed.status();
  EXPECT_TRUE(xml::DeepEqual(*doc, *parsed->ToXml()));
  const Fact& f = **parsed->GetFact("fact_table_revenue");
  EXPECT_EQ(f.measures[0].aggregation, AggFunc::kSum);
  EXPECT_EQ(f.dimension_refs.size(), 2u);
  EXPECT_EQ((**parsed->GetDimension("Supplier")).levels.size(), 3u);
  EXPECT_EQ(f.requirement_ids, (std::set<std::string>{"ir_revenue"}));
}

TEST(XmdTest, RoundtripThroughText) {
  MdSchema schema = MakeRevenueSchema();
  std::string text = xml::Write(*schema.ToXml());
  EXPECT_NE(text.find("<MDschema"), std::string::npos);
  EXPECT_NE(text.find("<name>fact_table_revenue</name>"), std::string::npos);
  auto doc = xml::Parse(text);
  ASSERT_TRUE(doc.ok());
  auto parsed = MdSchema::FromXml(**doc);
  ASSERT_TRUE(parsed.ok()) << parsed.status();
  EXPECT_EQ(parsed->facts().size(), 1u);
}

TEST(XmdTest, RejectsBadDocuments) {
  auto wrong = xml::Parse("<schema/>");
  ASSERT_TRUE(wrong.ok());
  EXPECT_TRUE(MdSchema::FromXml(**wrong).status().IsParseError());
  auto bad_agg = xml::Parse(
      "<MDschema><facts><fact><name>f</name><measures><measure>"
      "<name>m</name><expression>x</expression>"
      "<aggregation>MEDIAN</aggregation></measure></measures></fact></facts>"
      "</MDschema>");
  ASSERT_TRUE(bad_agg.ok());
  EXPECT_TRUE(MdSchema::FromXml(**bad_agg).status().IsParseError());
}

TEST(AggFuncTest, Roundtrip) {
  for (AggFunc f : {AggFunc::kSum, AggFunc::kAvg, AggFunc::kMin, AggFunc::kMax,
                    AggFunc::kCount}) {
    auto parsed = AggFuncFromString(AggFuncToString(f));
    ASSERT_TRUE(parsed.ok());
    EXPECT_EQ(*parsed, f);
  }
  EXPECT_TRUE(AggFuncFromString("avg").ok());  // case-insensitive
  EXPECT_FALSE(AggFuncFromString("median").ok());
}

// --- validator ---------------------------------------------------------------

TEST(ValidatorTest, SoundSchemaPasses) {
  ontology::Ontology onto = ontology::BuildTpchOntology();
  MdSchema schema = MakeRevenueSchema();
  EXPECT_TRUE(Validate(schema, &onto).empty());
  EXPECT_TRUE(CheckSound(schema, &onto).ok());
}

TEST(ValidatorTest, DanglingDimensionRef) {
  ontology::Ontology onto = ontology::BuildTpchOntology();
  MdSchema schema = MakeRevenueSchema();
  (*schema.GetMutableFact("fact_table_revenue"))
      ->dimension_refs.push_back({"Ghost", "Ghost"});
  auto violations = Validate(schema, &onto);
  ASSERT_FALSE(violations.empty());
  EXPECT_EQ(violations[0].kind, ViolationKind::kStructural);
  EXPECT_TRUE(CheckSound(schema, &onto).IsValidationError());
}

TEST(ValidatorTest, FactWithoutMeasuresOrDims) {
  MdSchema schema("s");
  Fact fact;
  fact.name = "empty";
  ASSERT_TRUE(schema.AddFact(fact).ok());
  auto violations = Validate(schema, nullptr);
  EXPECT_EQ(violations.size(), 2u);  // no measures + empty base
}

TEST(ValidatorTest, NonFunctionalFactDimensionPath) {
  ontology::Ontology onto = ontology::BuildTpchOntology();
  MdSchema schema("s");
  Dimension dim;
  dim.name = "Lineitem";
  dim.levels.push_back({"Lineitem", "Lineitem", {}, {}});
  ASSERT_TRUE(schema.AddDimension(dim).ok());
  Fact fact;
  fact.name = "fact_region";  // Region as fact cannot reach Lineitem.
  fact.concept_id = "Region";
  fact.measures.push_back({"m", "x", AggFunc::kSum, true, {}});
  fact.dimension_refs = {{"Lineitem", "Lineitem"}};
  ASSERT_TRUE(schema.AddFact(fact).ok());
  auto violations = Validate(schema, &onto);
  ASSERT_FALSE(violations.empty());
  bool found = false;
  for (const auto& v : violations) {
    if (v.kind == ViolationKind::kSummarizability) found = true;
  }
  EXPECT_TRUE(found);
}

TEST(ValidatorTest, NonFunctionalRollupInHierarchy) {
  ontology::Ontology onto = ontology::BuildTpchOntology();
  MdSchema schema = MakeRevenueSchema();
  // Reverse the Supplier hierarchy: Region -> Nation is one-to-many.
  Dimension* d = *schema.GetMutableDimension("Supplier");
  std::reverse(d->levels.begin(), d->levels.end());
  auto violations = Validate(schema, &onto);
  bool rollup_violation = false;
  for (const auto& v : violations) {
    if (v.kind == ViolationKind::kSummarizability) rollup_violation = true;
  }
  EXPECT_TRUE(rollup_violation);
}

TEST(ValidatorTest, NonAdditiveMeasureWithSum) {
  MdSchema schema = MakeRevenueSchema();
  Fact* fact = *schema.GetMutableFact("fact_table_revenue");
  fact->measures[0].additive = false;  // Still SUM -> violation.
  auto violations = Validate(schema, nullptr);
  ASSERT_FALSE(violations.empty());
  EXPECT_EQ(violations[0].kind, ViolationKind::kAggregation);
  fact->measures[0].aggregation = AggFunc::kAvg;
  EXPECT_TRUE(Validate(schema, nullptr).empty());
}

TEST(ValidatorTest, DuplicateDimensionInBase) {
  MdSchema schema = MakeRevenueSchema();
  Fact* fact = *schema.GetMutableFact("fact_table_revenue");
  fact->dimension_refs.push_back({"Part", "Part"});
  auto violations = Validate(schema, nullptr);
  bool base_violation = false;
  for (const auto& v : violations) {
    if (v.kind == ViolationKind::kBase) base_violation = true;
  }
  EXPECT_TRUE(base_violation);
}

TEST(ValidatorTest, HierarchyVisitingConceptTwice) {
  MdSchema schema("s");
  Dimension dim;
  dim.name = "D";
  dim.levels.push_back({"A", "Part", {}, {}});
  dim.levels.push_back({"B", "Part", {}, {}});
  ASSERT_TRUE(schema.AddDimension(dim).ok());
  auto violations = Validate(schema, nullptr);
  ASSERT_FALSE(violations.empty());
  EXPECT_EQ(violations[0].kind, ViolationKind::kStructural);
}

TEST(ValidatorTest, NullOntologySkipsGraphChecks) {
  MdSchema schema = MakeRevenueSchema();
  Dimension* d = *schema.GetMutableDimension("Supplier");
  std::reverse(d->levels.begin(), d->levels.end());  // Unsound vs ontology.
  EXPECT_TRUE(Validate(schema, nullptr).empty());    // But structurally fine.
}

// --- complexity ---------------------------------------------------------------

TEST(ComplexityTest, CountsElements) {
  MdSchema schema = MakeRevenueSchema();
  ComplexityReport report = StructuralComplexity(schema);
  EXPECT_EQ(report.facts, 1);
  EXPECT_EQ(report.dimensions, 2);
  EXPECT_EQ(report.levels, 4);
  EXPECT_EQ(report.attributes, 4);
  EXPECT_EQ(report.measures, 1);
  EXPECT_EQ(report.fact_dimension_edges, 2);
  EXPECT_EQ(report.rollup_edges, 2);
  EXPECT_GT(report.score, 0.0);
}

TEST(ComplexityTest, SharedDimensionBeatsDuplicatedOne) {
  MdSchema conformed = MakeRevenueSchema();
  // Second fact reusing the Part dimension.
  Fact f2;
  f2.name = "fact_table_netprofit";
  f2.concept_id = "Lineitem";
  f2.measures.push_back({"netprofit", "e", AggFunc::kSum, true, {}});
  f2.dimension_refs = {{"Part", "Part"}};
  ASSERT_TRUE(conformed.AddFact(f2).ok());

  MdSchema duplicated = MakeRevenueSchema();
  Dimension part2;
  part2.name = "Part_copy";
  part2.levels.push_back(
      {"Part", "Part", {{"p_name", DataType::kString, "Part.p_name"}}, {}});
  ASSERT_TRUE(duplicated.AddDimension(part2).ok());
  Fact f3 = f2;
  f3.dimension_refs = {{"Part_copy", "Part"}};
  ASSERT_TRUE(duplicated.AddFact(f3).ok());

  EXPECT_LT(StructuralComplexity(conformed).score,
            StructuralComplexity(duplicated).score);
}

TEST(ComplexityTest, WeightsAreConfigurable) {
  MdSchema schema = MakeRevenueSchema();
  ComplexityWeights heavy_facts;
  heavy_facts.fact = 100.0;
  ComplexityWeights light;
  EXPECT_GT(StructuralComplexity(schema, heavy_facts).score,
            StructuralComplexity(schema, light).score);
}

}  // namespace
}  // namespace quarry::md
