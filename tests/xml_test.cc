#include <gtest/gtest.h>

#include "src/xml/bridge.h"
#include "src/xml/node.h"
#include "src/xml/parser.h"
#include "src/xml/path.h"
#include "src/xml/stx.h"
#include "src/xml/xsd.h"

namespace dipbench {
namespace xml {
namespace {

TEST(NodeTest, BuildTree) {
  Node order("Order");
  order.SetAttr("id", "42");
  order.AddText("Custkey", "7");
  Node* items = order.AddChild("Items");
  items->AddText("Item", "widget");
  EXPECT_EQ(order.child_count(), 2u);
  EXPECT_EQ(*order.GetAttr("id"), "42");
  EXPECT_EQ(order.GetAttr("none"), nullptr);
  EXPECT_EQ(order.FindChild("Custkey")->text(), "7");
  EXPECT_EQ(order.FindChild("nope"), nullptr);
  EXPECT_EQ(*order.ChildText("Custkey"), "7");
  EXPECT_TRUE(order.ChildText("nope").status().IsNotFound());
  EXPECT_EQ(order.ChildTextOr("nope", "d"), "d");
  EXPECT_EQ(order.SubtreeSize(), 4u);
}

TEST(NodeTest, SetAttrOverwrites) {
  Node n("x");
  n.SetAttr("a", "1");
  n.SetAttr("a", "2");
  EXPECT_EQ(*n.GetAttr("a"), "2");
  EXPECT_EQ(n.attrs().size(), 1u);
}

TEST(NodeTest, CloneDeepAndEquals) {
  Node root("r");
  root.SetAttr("k", "v");
  root.AddText("a", "1")->SetAttr("x", "y");
  Node copy = root.Clone();
  EXPECT_TRUE(root.Equals(copy));
  copy.FindChild("a")->set_text("2");
  EXPECT_FALSE(root.Equals(copy));
}

TEST(NodeTest, FindChildrenReturnsAll) {
  Node root("r");
  root.AddText("x", "1");
  root.AddText("y", "2");
  root.AddText("x", "3");
  EXPECT_EQ(root.FindChildren("x").size(), 2u);
}

TEST(ParserTest, RoundTrip) {
  const char* doc =
      "<Order id=\"42\"><Custkey>7</Custkey>"
      "<Items><Item>widget</Item><Item>gadget</Item></Items></Order>";
  auto root = ParseXml(doc);
  ASSERT_TRUE(root.ok()) << root.status();
  EXPECT_EQ(root->name(), "Order");
  EXPECT_EQ(*root->GetAttr("id"), "42");
  EXPECT_EQ(root->FindChild("Items")->child_count(), 2u);
  std::string again = WriteXml(*root);
  auto reparsed = ParseXml(again);
  ASSERT_TRUE(reparsed.ok());
  EXPECT_TRUE(root->Equals(*reparsed));
}

TEST(ParserTest, DeclarationAndComments) {
  const char* doc =
      "<?xml version=\"1.0\"?><!-- header --><a><!-- inner -->"
      "<b>text</b></a>";
  auto root = ParseXml(doc);
  ASSERT_TRUE(root.ok()) << root.status();
  EXPECT_EQ(root->FindChild("b")->text(), "text");
}

TEST(ParserTest, SelfClosingAndSingleQuotes) {
  auto root = ParseXml("<a x='1'><b/><c y='z'/></a>");
  ASSERT_TRUE(root.ok());
  EXPECT_EQ(root->child_count(), 2u);
  EXPECT_EQ(*root->FindChild("c")->GetAttr("y"), "z");
}

TEST(ParserTest, EntityUnescaping) {
  auto root = ParseXml("<a>x &lt; y &amp;&amp; z &gt; w</a>");
  ASSERT_TRUE(root.ok());
  EXPECT_EQ(root->text(), "x < y && z > w");
  auto attr = ParseXml("<a v=\"&quot;q&quot;\"/>");
  ASSERT_TRUE(attr.ok());
  EXPECT_EQ(*attr->GetAttr("v"), "\"q\"");
}

TEST(ParserTest, NumericEntity) {
  auto root = ParseXml("<a>&#65;</a>");
  ASSERT_TRUE(root.ok());
  EXPECT_EQ(root->text(), "A");
}

TEST(ParserTest, CharacterReferencesDecodeToUtf8) {
  const std::pair<const char*, const char*> cases[] = {
      {"<a>&#x41;</a>", "A"},
      {"<a>&#x7f;&#x7F;</a>", "\x7f\x7f"},
      {"<a>&#256;</a>", "\xC4\x80"},
      {"<a>&#x7FF;&#x800;</a>", "\xDF\xBF\xE0\xA0\x80"},
      {"<a>&#xFFFF;</a>", "\xEF\xBF\xBF"},
      {"<a>&#x1F600;</a>", "\xF0\x9F\x98\x80"},
      {"<a>&#1114111;</a>", "\xF4\x8F\xBF\xBF"},
      {"<a>x&#x26;y&#60;z</a>", "x&y<z"},
  };
  for (const auto& [doc, text] : cases) {
    auto root = ParseXml(doc);
    ASSERT_TRUE(root.ok()) << doc << ": " << root.status();
    EXPECT_EQ(root->text(), text) << doc;
  }
  auto attr = ParseXml("<a v='&#x41;&#66;'/>");
  ASSERT_TRUE(attr.ok()) << attr.status();
  EXPECT_EQ(*attr->GetAttr("v"), "AB");
}

TEST(ParserTest, MalformedCharacterReferencesAreRejected) {
  // Each reference starts at offset 3, after "<a>".
  for (const char* doc :
       {"<a>&#;</a>", "<a>&#x;</a>", "<a>&#abc;</a>", "<a>&#65abc;</a>",
        "<a>&#x4G;</a>", "<a>&#-65;</a>", "<a>&#+65;</a>", "<a>&# 65;</a>",
        "<a>&#X41;</a>", "<a>&#0;</a>", "<a>&#x0;</a>", "<a>&#xD800;</a>",
        "<a>&#57343;</a>", "<a>&#x110000;</a>",
        "<a>&#99999999999999999999;</a>"}) {
    Status st = ParseXml(doc).status();
    EXPECT_TRUE(st.IsParseError()) << doc << ": " << st;
    EXPECT_NE(st.message().find("invalid character reference"),
              std::string::npos)
        << doc << ": " << st;
    EXPECT_NE(st.message().find("at offset 3"), std::string::npos)
        << doc << ": " << st;
  }
}

TEST(ParserTest, EntityErrorsNameTheOffset) {
  Status unknown = ParseXml("<a>&bogus;</a>").status();
  EXPECT_TRUE(unknown.IsParseError());
  EXPECT_NE(unknown.message().find("unknown entity &bogus; at offset 3"),
            std::string::npos)
      << unknown;
  Status unterminated = ParseXml("<a>x &amp y</a>").status();
  EXPECT_TRUE(unterminated.IsParseError());
  EXPECT_NE(unterminated.message().find("unterminated entity at offset 5"),
            std::string::npos)
      << unterminated;
  Status in_attr = ParseXml("<a v=\"x&bad;\"/>").status();
  EXPECT_TRUE(in_attr.IsParseError());
  EXPECT_NE(in_attr.message().find("unknown entity &bad; at offset 7"),
            std::string::npos)
      << in_attr;
}

std::string Nested(size_t levels) {
  std::string doc;
  for (size_t i = 0; i < levels; ++i) doc += "<e>";
  for (size_t i = 0; i < levels; ++i) doc += "</e>";
  return doc;
}

TEST(ParserTest, NestingIsBoundedAt128Levels) {
  auto deepest = ParseXml(Nested(128));
  ASSERT_TRUE(deepest.ok()) << deepest.status();
  EXPECT_EQ(deepest->SubtreeSize(), 128u);
  for (size_t levels : {size_t{129}, size_t{100000}}) {
    Status st = ParseXml(Nested(levels)).status();
    EXPECT_TRUE(st.IsParseError()) << levels << ": " << st;
    // The 129th start tag begins after 128 "<e>" tags.
    EXPECT_NE(st.message().find("nesting deeper than 128 levels at offset 384"),
              std::string::npos)
        << levels << ": " << st;
  }
}

TEST(ParserTest, Errors) {
  EXPECT_TRUE(ParseXml("<a><b></a>").status().IsParseError());
  EXPECT_TRUE(ParseXml("<a>").status().IsParseError());
  EXPECT_TRUE(ParseXml("no xml here").status().IsParseError());
  EXPECT_TRUE(ParseXml("<a></a><b></b>").status().IsParseError());
  EXPECT_TRUE(ParseXml("<a attr></a>").status().IsParseError());
  EXPECT_TRUE(ParseXml("<a>&bogus;</a>").status().IsParseError());
}

TEST(ParserTest, EscapesOnWrite) {
  Node n("a");
  n.set_text("x < y & z");
  std::string out = WriteXml(n);
  EXPECT_EQ(out, "<a>x &lt; y &amp; z</a>");
}

TEST(ParserTest, IndentedOutput) {
  auto root = ParseXml("<a><b>1</b></a>");
  ASSERT_TRUE(root.ok());
  std::string pretty = WriteXml(*root, 2);
  EXPECT_NE(pretty.find("\n  <b>1</b>\n"), std::string::npos);
}

TEST(PathTest, AbsoluteAndRelative) {
  auto root = ParseXml(
      "<Order><Items><Item><Name>a</Name></Item>"
      "<Item><Name>b</Name></Item></Items><Custkey>9</Custkey></Order>");
  ASSERT_TRUE(root.ok());
  EXPECT_EQ(SelectNodes(*root, "/Order/Items/Item").size(), 2u);
  EXPECT_EQ(SelectNodes(*root, "Items/Item").size(), 2u);
  EXPECT_EQ(SelectNodes(*root, "/Wrong/Items").size(), 0u);
  EXPECT_EQ(*SelectText(*root, "Custkey"), "9");
  EXPECT_TRUE(SelectText(*root, "Missing").status().IsNotFound());
}

TEST(PathTest, Wildcard) {
  auto root = ParseXml("<a><b>1</b><c>2</c></a>");
  ASSERT_TRUE(root.ok());
  EXPECT_EQ(SelectNodes(*root, "*").size(), 2u);
}

TEST(PathTest, DescendantSearch) {
  auto root = ParseXml(
      "<a><b><c><Custkey>1</Custkey></c></b><Custkey>2</Custkey></a>");
  ASSERT_TRUE(root.ok());
  auto nodes = SelectNodes(*root, "//Custkey");
  EXPECT_EQ(nodes.size(), 2u);
  EXPECT_EQ(SelectFirst(*root, "//c/Custkey")->text(), "1");
}

XsdSchema OrderSchema() {
  XsdSchema schema("Order");
  schema.Element("Order", Container({Required("Custkey"), Repeated("Item", 1),
                                     Optional("Note")}));
  schema.Element("Custkey", Leaf(DataType::kInt64));
  schema.Element("Item",
                 Container({Required("Name"), Required("Qty")}));
  schema.Element("Name", Leaf(DataType::kString));
  schema.Element("Qty", Leaf(DataType::kInt64));
  return schema;
}

TEST(XsdTest, ValidDocumentPasses) {
  auto doc = ParseXml(
      "<Order><Custkey>5</Custkey>"
      "<Item><Name>x</Name><Qty>2</Qty></Item></Order>");
  ASSERT_TRUE(doc.ok());
  EXPECT_TRUE(OrderSchema().Validate(*doc).ok());
}

TEST(XsdTest, WrongRootFails) {
  auto doc = ParseXml("<Bestellung/>");
  ASSERT_TRUE(doc.ok());
  EXPECT_TRUE(OrderSchema().Validate(*doc).IsValidationError());
}

TEST(XsdTest, MissingRequiredChildFails) {
  auto doc = ParseXml(
      "<Order><Item><Name>x</Name><Qty>2</Qty></Item></Order>");
  ASSERT_TRUE(doc.ok());
  Status st = OrderSchema().Validate(*doc);
  EXPECT_TRUE(st.IsValidationError());
  EXPECT_NE(st.message().find("Custkey"), std::string::npos);
}

TEST(XsdTest, BadLexicalTypeFails) {
  auto doc = ParseXml(
      "<Order><Custkey>abc</Custkey>"
      "<Item><Name>x</Name><Qty>2</Qty></Item></Order>");
  ASSERT_TRUE(doc.ok());
  EXPECT_TRUE(OrderSchema().Validate(*doc).IsValidationError());
}

TEST(XsdTest, UndeclaredChildFailsClosedContent) {
  auto doc = ParseXml(
      "<Order><Custkey>5</Custkey><Bogus/>"
      "<Item><Name>x</Name><Qty>2</Qty></Item></Order>");
  ASSERT_TRUE(doc.ok());
  EXPECT_TRUE(OrderSchema().Validate(*doc).IsValidationError());
}

TEST(XsdTest, MaxOccursEnforced) {
  auto doc = ParseXml(
      "<Order><Custkey>5</Custkey><Note>a</Note><Note>b</Note>"
      "<Item><Name>x</Name><Qty>2</Qty></Item></Order>");
  ASSERT_TRUE(doc.ok());
  EXPECT_TRUE(OrderSchema().Validate(*doc).IsValidationError());
}

TEST(XsdTest, RequiredAttribute) {
  XsdSchema schema("Msg");
  XsdSchema::ElementSpec spec;
  spec.required_attrs.push_back("id");
  spec.open_content = true;
  schema.Element("Msg", spec);
  auto ok_doc = ParseXml("<Msg id=\"1\"/>");
  auto bad_doc = ParseXml("<Msg/>");
  EXPECT_TRUE(schema.Validate(*ok_doc).ok());
  EXPECT_TRUE(schema.Validate(*bad_doc).IsValidationError());
}

TEST(StxTest, RenameAndValueMap) {
  // Beijing -> Seoul master data exchange style translation (P01).
  StxTransformer t;
  StxRule rule;
  rule.match = "CustomerB";
  rule.rename_to = "CustomerS";
  rule.field_renames = {{"CKey", "Custkey"}, {"CName", "Name"}};
  rule.value_maps = {{"Priority", {{"H", "HIGH"}, {"L", "LOW"}}}};
  t.AddRule(std::move(rule));

  auto doc = ParseXml(
      "<CustomerB><CKey>3</CKey><CName>li</CName>"
      "<Priority>H</Priority></CustomerB>");
  ASSERT_TRUE(doc.ok());
  size_t visited = 0;
  auto out = t.Transform(*doc, &visited);
  ASSERT_TRUE(out.ok());
  EXPECT_EQ(out->name(), "CustomerS");
  EXPECT_EQ(out->FindChild("Custkey")->text(), "3");
  EXPECT_EQ(out->FindChild("Name")->text(), "li");
  EXPECT_EQ(out->FindChild("Priority")->text(), "HIGH");
  EXPECT_EQ(visited, 4u);
}

TEST(StxTest, ParentQualifiedMatch) {
  StxTransformer t;
  StxRule rule;
  rule.match = "Order/Key";
  rule.field_renames = {};
  rule.rename_to = "Orderkey";
  t.AddRule(std::move(rule));
  auto doc = ParseXml("<Root><Order><Key>1</Key></Order><Key>2</Key></Root>");
  ASSERT_TRUE(doc.ok());
  size_t visited = 0;
  auto out = t.Transform(*doc, &visited);
  ASSERT_TRUE(out.ok());
  EXPECT_EQ(visited, 4u);
  // Only the Key under Order is renamed... note: Key under Order is a leaf
  // child handled by the Order rule's parent; here no rule matches Order, so
  // Key is visited as a child element and matched by parent qualification.
  EXPECT_NE(SelectFirst(*out, "//Orderkey"), nullptr);
  EXPECT_NE(SelectFirst(*out, "/Root/Key"), nullptr);
}

TEST(StxTest, DropRule) {
  StxTransformer t;
  StxRule rule;
  rule.match = "Internal";
  rule.drop = true;
  t.AddRule(std::move(rule));
  auto doc = ParseXml("<a><Internal><x>1</x></Internal><b>2</b></a>");
  ASSERT_TRUE(doc.ok());
  size_t visited = 0;
  auto out = t.Transform(*doc, &visited);
  ASSERT_TRUE(out.ok());
  EXPECT_EQ(out->FindChild("Internal"), nullptr);
  EXPECT_NE(out->FindChild("b"), nullptr);
  EXPECT_EQ(visited, 4u);  // dropped subtree still counted
}

TEST(StxTest, AddFields) {
  StxTransformer t;
  StxRule rule;
  rule.match = "Order";
  rule.add_fields = {{"Source", "vienna"}};
  t.AddRule(std::move(rule));
  auto doc = ParseXml("<Order><k>1</k></Order>");
  size_t visited = 0;
  auto out = t.Transform(*doc, &visited);
  ASSERT_TRUE(out.ok());
  EXPECT_EQ(out->FindChild("Source")->text(), "vienna");
  EXPECT_EQ(visited, 2u);  // added fields are not input
}

TEST(StxTest, DroppedRootErrors) {
  StxTransformer t;
  StxRule rule;
  rule.match = "a";
  rule.drop = true;
  t.AddRule(std::move(rule));
  auto doc = ParseXml("<a><b/></a>");
  size_t visited = 0;
  EXPECT_TRUE(t.Transform(*doc, &visited).status().IsValidationError());
  EXPECT_EQ(visited, 2u);
}

TEST(BridgeTest, RowSetRoundTrip) {
  Schema s;
  s.AddColumn("custkey", DataType::kInt64, false)
      .AddColumn("name", DataType::kString)
      .AddColumn("balance", DataType::kDouble);
  RowSet rs;
  rs.schema = s;
  rs.rows.push_back({Value::Int(1), Value::String("li"), Value::Double(9.5)});
  rs.rows.push_back({Value::Int(2), Value::Null(), Value::Double(-1.0)});

  Node doc = RowSetToXml(rs, "resultset", "row");
  EXPECT_EQ(doc.child_count(), 2u);
  auto back = XmlToRowSet(doc, s, "row");
  ASSERT_TRUE(back.ok());
  ASSERT_EQ(back->rows.size(), 2u);
  EXPECT_EQ(back->rows[0][0].AsInt(), 1);
  EXPECT_EQ(back->rows[0][1].AsString(), "li");
  EXPECT_TRUE(back->rows[1][1].is_null());
  EXPECT_DOUBLE_EQ(back->rows[1][2].AsDouble(), -1.0);
}

TEST(BridgeTest, RowRoundTripThroughText) {
  Schema s;
  s.AddColumn("k", DataType::kInt64).AddColumn("d", DataType::kDate);
  Row row{Value::Int(5), Value::DateYmd(2008, 4, 12)};
  Node el = RowToXml(row, s, "rec");
  std::string text = WriteXml(el);
  auto parsed = ParseXml(text);
  ASSERT_TRUE(parsed.ok());
  auto back = XmlToRow(*parsed, s);
  ASSERT_TRUE(back.ok());
  EXPECT_TRUE(RowsEqual(row, *back));
}

TEST(BridgeTest, BadCellTextErrors) {
  Schema s;
  s.AddColumn("k", DataType::kInt64);
  auto doc = ParseXml("<rs><row><k>xyz</k></row></rs>");
  ASSERT_TRUE(doc.ok());
  EXPECT_FALSE(XmlToRowSet(*doc, s, "row").ok());
}

TEST(BridgeTest, ForeignRowNamesIgnored) {
  Schema s;
  s.AddColumn("k", DataType::kInt64);
  auto doc = ParseXml("<rs><other/><row><k>1</k></row></rs>");
  ASSERT_TRUE(doc.ok());
  auto rs = XmlToRowSet(*doc, s, "row");
  ASSERT_TRUE(rs.ok());
  EXPECT_EQ(rs->rows.size(), 1u);
}

}  // namespace
}  // namespace xml
}  // namespace dipbench
