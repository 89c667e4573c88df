#ifndef ORCASTREAM_COMMON_XML_H_
#define ORCASTREAM_COMMON_XML_H_

#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "common/status.h"

namespace orcastream::common {

/// Minimal XML element tree used for the ADL application description files
/// and ORCA descriptors (the System S equivalents are XML documents). The
/// supported subset covers elements, double-quoted attributes, character
/// data, comments, and the `<?xml?>` declaration — everything the ADL
/// format needs, nothing more.
///
/// ParseXml accepts at most kMaxDepth levels of element nesting (the root
/// is level 1); a deeper document is a ParseError. The parser recurses
/// once per level, so without the bound a hostile document could exhaust
/// the stack.
class XmlElement {
 public:
  static constexpr int kMaxDepth = 256;

  explicit XmlElement(std::string name) : name_(std::move(name)) {}

  const std::string& name() const { return name_; }
  const std::string& text() const { return text_; }
  void set_text(std::string text) { text_ = std::move(text); }

  /// Sets (or overwrites) an attribute.
  void SetAttr(const std::string& key, const std::string& value);
  /// Prevents the const char* → bool standard conversion from hijacking
  /// string literals.
  void SetAttr(const std::string& key, const char* value) {
    SetAttr(key, std::string(value));
  }
  void SetAttr(const std::string& key, int64_t value);
  void SetAttr(const std::string& key, double value);
  void SetAttr(const std::string& key, bool value);

  /// Returns the attribute value, or an error if absent.
  Result<std::string> Attr(const std::string& key) const;
  /// Returns the attribute value or `fallback` if absent.
  std::string AttrOr(const std::string& key, const std::string& fallback) const;
  Result<int64_t> IntAttr(const std::string& key) const;
  Result<double> DoubleAttr(const std::string& key) const;
  Result<bool> BoolAttr(const std::string& key) const;
  bool HasAttr(const std::string& key) const;

  const std::vector<std::pair<std::string, std::string>>& attrs() const {
    return attrs_;
  }

  /// Appends a child element and returns a pointer to it.
  XmlElement* AddChild(std::string name);

  /// Appends an already-built child element (used by the parser).
  XmlElement* AddChildOwned(std::unique_ptr<XmlElement> child);

  const std::vector<std::unique_ptr<XmlElement>>& children() const {
    return children_;
  }

  /// First child with the given name, or nullptr.
  const XmlElement* FindChild(std::string_view name) const;
  /// All children with the given name.
  std::vector<const XmlElement*> FindChildren(std::string_view name) const;

  /// Serializes this element (and subtree) as indented XML.
  std::string ToString() const;

 private:
  void AppendTo(std::string* out, int indent) const;

  std::string name_;
  std::string text_;
  std::vector<std::pair<std::string, std::string>> attrs_;
  std::vector<std::unique_ptr<XmlElement>> children_;
};

/// Parses an XML document (subset described on XmlElement) and returns its
/// root element.
Result<std::unique_ptr<XmlElement>> ParseXml(std::string_view input);

/// Escapes &, <, >, and double quotes for use in XML output.
std::string XmlEscape(std::string_view raw);

}  // namespace orcastream::common

#endif  // ORCASTREAM_COMMON_XML_H_
