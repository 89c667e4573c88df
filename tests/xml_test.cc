#include <gtest/gtest.h>

#include "common/xml.h"

namespace orcastream::common {
namespace {

TEST(XmlWriteTest, EmptyElement) {
  XmlElement root("root");
  EXPECT_EQ(root.ToString(), "<?xml version=\"1.0\"?>\n<root/>\n");
}

TEST(XmlWriteTest, AttributesAndChildren) {
  XmlElement root("application");
  root.SetAttr("name", "Figure2");
  XmlElement* op = root.AddChild("operator");
  op->SetAttr("kind", "Split");
  std::string out = root.ToString();
  EXPECT_NE(out.find("<application name=\"Figure2\">"), std::string::npos);
  EXPECT_NE(out.find("<operator kind=\"Split\"/>"), std::string::npos);
}

TEST(XmlWriteTest, EscapesSpecialCharacters) {
  XmlElement root("x");
  root.SetAttr("v", "a<b&c>\"d\"");
  std::string out = root.ToString();
  EXPECT_NE(out.find("a&lt;b&amp;c&gt;&quot;d&quot;"), std::string::npos);
}

TEST(XmlWriteTest, TypedAttributes) {
  XmlElement root("x");
  root.SetAttr("i", static_cast<int64_t>(-5));
  root.SetAttr("d", 2.5);
  root.SetAttr("b", true);
  EXPECT_EQ(root.IntAttr("i").value(), -5);
  EXPECT_EQ(root.DoubleAttr("d").value(), 2.5);
  EXPECT_EQ(root.BoolAttr("b").value(), true);
}

TEST(XmlParseTest, RoundTrip) {
  XmlElement root("application");
  root.SetAttr("name", "app & co");
  XmlElement* child = root.AddChild("operator");
  child->SetAttr("kind", "Merge");
  child->set_text("some text");
  root.AddChild("operator")->SetAttr("kind", "Split");

  auto parsed = ParseXml(root.ToString());
  ASSERT_TRUE(parsed.ok()) << parsed.status();
  const XmlElement& p = **parsed;
  EXPECT_EQ(p.name(), "application");
  EXPECT_EQ(p.Attr("name").value(), "app & co");
  ASSERT_EQ(p.children().size(), 2u);
  EXPECT_EQ(p.children()[0]->Attr("kind").value(), "Merge");
  EXPECT_EQ(p.children()[0]->text(), "some text");
  EXPECT_EQ(p.FindChildren("operator").size(), 2u);
}

TEST(XmlParseTest, DeclarationAndComments) {
  auto parsed = ParseXml(
      "<?xml version=\"1.0\"?>\n"
      "<!-- leading comment -->\n"
      "<root a=\"1\"><!-- inner --><child/></root>");
  ASSERT_TRUE(parsed.ok()) << parsed.status();
  EXPECT_EQ((*parsed)->IntAttr("a").value(), 1);
  EXPECT_NE((*parsed)->FindChild("child"), nullptr);
}

TEST(XmlParseTest, SelfClosingAndNested) {
  auto parsed = ParseXml("<a><b><c x=\"y\"/></b></a>");
  ASSERT_TRUE(parsed.ok());
  const XmlElement* b = (*parsed)->FindChild("b");
  ASSERT_NE(b, nullptr);
  const XmlElement* c = b->FindChild("c");
  ASSERT_NE(c, nullptr);
  EXPECT_EQ(c->Attr("x").value(), "y");
}

TEST(XmlParseTest, EntityUnescaping) {
  auto parsed = ParseXml("<a v=\"x&amp;y&lt;z\">t&gt;u</a>");
  ASSERT_TRUE(parsed.ok());
  EXPECT_EQ((*parsed)->Attr("v").value(), "x&y<z");
  EXPECT_EQ((*parsed)->text(), "t>u");
}

TEST(XmlParseTest, RejectsMismatchedTags) {
  EXPECT_FALSE(ParseXml("<a></b>").ok());
}

TEST(XmlParseTest, RejectsTrailingContent) {
  EXPECT_FALSE(ParseXml("<a/><b/>").ok());
}

TEST(XmlParseTest, RejectsUnterminatedAttribute) {
  EXPECT_FALSE(ParseXml("<a v=\"x></a>").ok());
}

TEST(XmlParseTest, RejectsGarbage) {
  EXPECT_FALSE(ParseXml("not xml at all").ok());
  EXPECT_FALSE(ParseXml("").ok());
}

/// `depth` nested <a> elements, the innermost empty.
std::string NestedDocument(int depth) {
  std::string xml;
  for (int i = 0; i < depth; ++i) xml += "<a>";
  for (int i = 0; i < depth; ++i) xml += "</a>";
  return xml;
}

TEST(XmlParseTest, NestingAtTheDepthLimitParses) {
  auto root = ParseXml(NestedDocument(XmlElement::kMaxDepth));
  ASSERT_TRUE(root.ok()) << root.status();
  int depth = 1;
  for (const XmlElement* e = root->get(); !e->children().empty();
       e = e->children().front().get()) {
    ++depth;
  }
  EXPECT_EQ(depth, XmlElement::kMaxDepth);
}

TEST(XmlParseTest, RejectsNestingPastTheDepthLimit) {
  auto one_over = ParseXml(NestedDocument(XmlElement::kMaxDepth + 1));
  EXPECT_EQ(one_over.status().code(), StatusCode::kParseError);
  // Deep enough to overflow an 8 MiB stack if the parser recursed all the
  // way down.
  auto hostile = ParseXml(NestedDocument(100000));
  EXPECT_EQ(hostile.status().code(), StatusCode::kParseError);
}

TEST(XmlParseTest, MissingAttributeIsNotFound) {
  auto parsed = ParseXml("<a/>");
  ASSERT_TRUE(parsed.ok());
  EXPECT_TRUE((*parsed)->Attr("nope").status().IsNotFound());
  EXPECT_EQ((*parsed)->AttrOr("nope", "dflt"), "dflt");
  EXPECT_FALSE((*parsed)->HasAttr("nope"));
}

TEST(XmlParseTest, BadTypedAttributesAreParseErrors) {
  auto parsed = ParseXml("<a i=\"abc\" b=\"maybe\" d=\"zz\"/>");
  ASSERT_TRUE(parsed.ok());
  EXPECT_TRUE((*parsed)->IntAttr("i").status().IsParseError());
  EXPECT_TRUE((*parsed)->BoolAttr("b").status().IsParseError());
  EXPECT_TRUE((*parsed)->DoubleAttr("d").status().IsParseError());
}

}  // namespace
}  // namespace orcastream::common
