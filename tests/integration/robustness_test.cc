// Robustness / failure-injection property tests: the parsers must return a
// Status (ok or error) on arbitrarily mutated input — never crash, hang,
// or trip sanitizers.
#include <gtest/gtest.h>

#include <string>

#include "schema/serialization.h"
#include "util/random.h"
#include "xml/dtd_parser.h"
#include "xml/xml_parser.h"
#include "xml/xsd_parser.h"

namespace xsm {
namespace {

constexpr char kXmlSeed[] = R"(<?xml version="1.0"?>
<!DOCTYPE lib [<!ELEMENT lib (book*)>]>
<lib a="1" b='2'>
  <!-- comment --> text &amp; entities &#65;
  <book isbn="x"><title>T</title><![CDATA[raw <>]]></book>
</lib>)";

constexpr char kDtdSeed[] = R"dtd(
<!ELEMENT lib (book*, address?)>
<!ATTLIST book isbn CDATA #REQUIRED kind (a|b) "a">
<!ELEMENT book (#PCDATA | title)*>
<!ENTITY copy "(c)">
)dtd";

constexpr char kXsdSeed[] = R"(<xs:schema xmlns:xs="http://www.w3.org/2001/XMLSchema">
  <xs:element name="a" type="T"/>
  <xs:complexType name="T"><xs:sequence>
    <xs:element name="b" type="xs:string" minOccurs="0"/>
  </xs:sequence></xs:complexType>
</xs:schema>)";

constexpr char kForestSeed[] =
    "#xsm-forest v1\ntree src\nnode 0 -1 E - root\nnode 1 0 A ro x "
    "CDATA\nend\n";

// Applies `count` random byte mutations (overwrite / insert / delete).
std::string Mutate(std::string input, int count, Rng* rng) {
  const std::string charset = "<>!&;\"'()[]#%| abcdeXYZ0129\n\t";
  for (int i = 0; i < count && !input.empty(); ++i) {
    size_t pos = rng->Uniform(input.size());
    switch (rng->Uniform(3)) {
      case 0:
        input[pos] = charset[rng->Uniform(charset.size())];
        break;
      case 1:
        input.insert(pos, 1, charset[rng->Uniform(charset.size())]);
        break;
      case 2:
        input.erase(pos, 1);
        break;
    }
  }
  return input;
}

class ParserRobustnessTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(ParserRobustnessTest, XmlParserNeverCrashes) {
  Rng rng(GetParam());
  for (int trial = 0; trial < 300; ++trial) {
    std::string mutated = Mutate(kXmlSeed, 1 + trial % 12, &rng);
    auto result = xml::ParseXml(mutated);
    if (result.ok()) {
      EXPECT_NE(result->root, nullptr);
    } else {
      EXPECT_FALSE(result.status().message().empty());
    }
  }
}

TEST_P(ParserRobustnessTest, DtdParserNeverCrashes) {
  Rng rng(GetParam() ^ 0x1111);
  for (int trial = 0; trial < 300; ++trial) {
    std::string mutated = Mutate(kDtdSeed, 1 + trial % 12, &rng);
    // Lenient mode must always succeed (skipping bad declarations).
    auto lenient = xml::ParseDtd(mutated);
    EXPECT_TRUE(lenient.ok());
    if (lenient.ok()) {
      auto trees = xml::DtdToSchemaTrees(*lenient);
      if (trees.ok()) {
        for (const auto& t : *trees) EXPECT_TRUE(t.Validate().ok());
      }
    }
    // Strict mode may fail, but must not crash.
    (void)xml::ParseDtd(mutated, {.lenient = false});
  }
}

TEST_P(ParserRobustnessTest, XsdParserNeverCrashes) {
  Rng rng(GetParam() ^ 0x2222);
  for (int trial = 0; trial < 300; ++trial) {
    std::string mutated = Mutate(kXsdSeed, 1 + trial % 12, &rng);
    auto result = xml::ParseXsd(mutated);
    if (result.ok()) {
      for (const auto& t : result->trees) EXPECT_TRUE(t.Validate().ok());
    }
  }
}

TEST_P(ParserRobustnessTest, ForestDeserializerNeverCrashes) {
  Rng rng(GetParam() ^ 0x3333);
  for (int trial = 0; trial < 300; ++trial) {
    std::string mutated = Mutate(kForestSeed, 1 + trial % 8, &rng);
    auto result = schema::DeserializeForest(mutated);
    if (result.ok()) {
      EXPECT_TRUE(result->Validate().ok());
    }
  }
}

TEST_P(ParserRobustnessTest, TreeSpecParserNeverCrashes) {
  Rng rng(GetParam() ^ 0x4444);
  const std::string seed = "lib(book(@isbn,title,data(shelf)),address)";
  for (int trial = 0; trial < 300; ++trial) {
    std::string mutated = Mutate(seed, 1 + trial % 6, &rng);
    auto result = schema::ParseTreeSpec(mutated);
    if (result.ok()) {
      EXPECT_TRUE(result->Validate().ok());
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, ParserRobustnessTest,
                         ::testing::Values(1u, 2u, 3u, 4u));

TEST(RobustnessTest, DeepNestingIsBounded) {
  // Deeply nested XML: a pathological but realistic depth parses (and is
  // destroyed) without exhausting the stack.
  std::string open;
  std::string close;
  for (int i = 0; i < 2000; ++i) {
    open += "<a>";
    close += "</a>";
  }
  auto result = xml::ParseXml(open + close);
  EXPECT_TRUE(result.ok());

  // DTD expansion depth is capped by max_depth.
  std::string dtd;
  for (int i = 0; i < 200; ++i) {
    dtd += "<!ELEMENT e" + std::to_string(i) + " (e" +
           std::to_string(i + 1) + ")>\n";
  }
  dtd += "<!ELEMENT e200 (#PCDATA)>\n";
  auto parsed = xml::ParseDtd(dtd);
  ASSERT_TRUE(parsed.ok());
  xml::DtdToSchemaOptions options;
  options.max_depth = 64;
  EXPECT_FALSE(xml::DtdToSchemaTrees(*parsed, options).ok());
  options.max_depth = 1024;
  EXPECT_TRUE(xml::DtdToSchemaTrees(*parsed, options).ok());
}

TEST(RobustnessTest, NestingBeyondTheCapIsAParseError) {
  auto nested = [](size_t depth) {
    std::string doc;
    doc.reserve(depth * 7);
    for (size_t i = 0; i < depth; ++i) doc += "<a>";
    for (size_t i = 0; i < depth; ++i) doc += "</a>";
    return doc;
  };
  // The deepest accepted document parses and is destroyed iteratively.
  auto deepest = xml::ParseXml(nested(xml::kMaxElementDepth));
  ASSERT_TRUE(deepest.ok()) << deepest.status().ToString();
  size_t depth = 1;
  for (const xml::XmlElement* e = deepest->root.get(); !e->children.empty();
       e = e->children[0].get()) {
    ++depth;
  }
  EXPECT_EQ(depth, xml::kMaxElementDepth);

  for (size_t too_deep : {xml::kMaxElementDepth + 1, size_t{100000}}) {
    auto result = xml::ParseXml(nested(too_deep));
    ASSERT_FALSE(result.ok()) << too_deep;
    EXPECT_EQ(result.status().code(), StatusCode::kParseError) << too_deep;
  }
  // A self-closing element one level too deep counts too.
  std::string open;
  std::string close;
  for (size_t i = 0; i < xml::kMaxElementDepth; ++i) {
    open += "<a>";
    close += "</a>";
  }
  auto leaf = xml::ParseXml(open + "<b/>" + close);
  ASSERT_FALSE(leaf.ok());
  EXPECT_EQ(leaf.status().code(), StatusCode::kParseError);
}

TEST(RobustnessTest, HugeAttributeAndNameLengths) {
  std::string long_name(5000, 'x');
  auto doc = xml::ParseXml("<" + long_name + " attr=\"" +
                           std::string(10000, 'y') + "\"/>");
  ASSERT_TRUE(doc.ok());
  EXPECT_EQ(doc->root->name.size(), 5000u);
}

}  // namespace
}  // namespace xsm
