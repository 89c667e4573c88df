#include "common/xml.h"

#include <cctype>
#include <cstdlib>

#include "common/strings.h"

namespace orcastream::common {

void XmlElement::SetAttr(const std::string& key, const std::string& value) {
  for (auto& [k, v] : attrs_) {
    if (k == key) {
      v = value;
      return;
    }
  }
  attrs_.emplace_back(key, value);
}

void XmlElement::SetAttr(const std::string& key, int64_t value) {
  SetAttr(key, StrFormat("%lld", static_cast<long long>(value)));
}

void XmlElement::SetAttr(const std::string& key, double value) {
  SetAttr(key, StrFormat("%.17g", value));
}

void XmlElement::SetAttr(const std::string& key, bool value) {
  SetAttr(key, std::string(value ? "true" : "false"));
}

Result<std::string> XmlElement::Attr(const std::string& key) const {
  for (const auto& [k, v] : attrs_) {
    if (k == key) return v;
  }
  return Status::NotFound(
      StrFormat("attribute '%s' not found on <%s>", key.c_str(),
                name_.c_str()));
}

std::string XmlElement::AttrOr(const std::string& key,
                               const std::string& fallback) const {
  auto r = Attr(key);
  return r.ok() ? r.value() : fallback;
}

Result<int64_t> XmlElement::IntAttr(const std::string& key) const {
  ORCA_ASSIGN_OR_RETURN(std::string raw, Attr(key));
  char* end = nullptr;
  long long parsed = std::strtoll(raw.c_str(), &end, 10);
  if (end == raw.c_str() || *end != '\0') {
    return Status::ParseError(
        StrFormat("attribute '%s'='%s' is not an integer", key.c_str(),
                  raw.c_str()));
  }
  return static_cast<int64_t>(parsed);
}

Result<double> XmlElement::DoubleAttr(const std::string& key) const {
  ORCA_ASSIGN_OR_RETURN(std::string raw, Attr(key));
  char* end = nullptr;
  double parsed = std::strtod(raw.c_str(), &end);
  if (end == raw.c_str() || *end != '\0') {
    return Status::ParseError(
        StrFormat("attribute '%s'='%s' is not a double", key.c_str(),
                  raw.c_str()));
  }
  return parsed;
}

Result<bool> XmlElement::BoolAttr(const std::string& key) const {
  Result<std::string> raw = Attr(key);
  if (!raw.ok()) return raw.status();
  if (*raw == "true" || *raw == "1") return true;
  if (*raw == "false" || *raw == "0") return false;
  return Status::ParseError(
      StrFormat("attribute '%s'='%s' is not a boolean", key.c_str(),
                raw->c_str()));
}

bool XmlElement::HasAttr(const std::string& key) const {
  return Attr(key).ok();
}

XmlElement* XmlElement::AddChild(std::string name) {
  children_.push_back(std::make_unique<XmlElement>(std::move(name)));
  return children_.back().get();
}

XmlElement* XmlElement::AddChildOwned(std::unique_ptr<XmlElement> child) {
  children_.push_back(std::move(child));
  return children_.back().get();
}

const XmlElement* XmlElement::FindChild(std::string_view name) const {
  for (const auto& child : children_) {
    if (child->name() == name) return child.get();
  }
  return nullptr;
}

std::vector<const XmlElement*> XmlElement::FindChildren(
    std::string_view name) const {
  std::vector<const XmlElement*> out;
  for (const auto& child : children_) {
    if (child->name() == name) out.push_back(child.get());
  }
  return out;
}

std::string XmlEscape(std::string_view raw) {
  std::string out;
  out.reserve(raw.size());
  for (char c : raw) {
    switch (c) {
      case '&':
        out += "&amp;";
        break;
      case '<':
        out += "&lt;";
        break;
      case '>':
        out += "&gt;";
        break;
      case '"':
        out += "&quot;";
        break;
      default:
        out += c;
    }
  }
  return out;
}

void XmlElement::AppendTo(std::string* out, int indent) const {
  out->append(static_cast<size_t>(indent) * 2, ' ');
  out->push_back('<');
  out->append(name_);
  for (const auto& [k, v] : attrs_) {
    out->push_back(' ');
    out->append(k);
    out->append("=\"");
    out->append(XmlEscape(v));
    out->push_back('"');
  }
  if (children_.empty() && text_.empty()) {
    out->append("/>\n");
    return;
  }
  out->push_back('>');
  if (!text_.empty()) {
    out->append(XmlEscape(text_));
  }
  if (!children_.empty()) {
    out->push_back('\n');
    for (const auto& child : children_) {
      child->AppendTo(out, indent + 1);
    }
    out->append(static_cast<size_t>(indent) * 2, ' ');
  }
  out->append("</");
  out->append(name_);
  out->append(">\n");
}

std::string XmlElement::ToString() const {
  std::string out = "<?xml version=\"1.0\"?>\n";
  AppendTo(&out, 0);
  return out;
}

namespace {

/// Recursive-descent parser over the XML subset.
class XmlParser {
 public:
  explicit XmlParser(std::string_view input) : input_(input) {}

  Result<std::unique_ptr<XmlElement>> Parse() {
    SkipProlog();
    auto root = ParseElement();
    if (!root.ok()) return root.status();
    SkipWhitespaceAndComments();
    if (pos_ != input_.size()) {
      return Status::ParseError(
          StrFormat("trailing content at offset %zu", pos_));
    }
    return root;
  }

 private:
  void SkipWhitespace() {
    while (pos_ < input_.size() &&
           std::isspace(static_cast<unsigned char>(input_[pos_]))) {
      ++pos_;
    }
  }

  bool SkipComment() {
    if (input_.substr(pos_, 4) == "<!--") {
      size_t end = input_.find("-->", pos_ + 4);
      pos_ = (end == std::string_view::npos) ? input_.size() : end + 3;
      return true;
    }
    return false;
  }

  void SkipWhitespaceAndComments() {
    while (true) {
      SkipWhitespace();
      if (!SkipComment()) break;
    }
  }

  void SkipProlog() {
    SkipWhitespaceAndComments();
    if (input_.substr(pos_, 5) == "<?xml") {
      size_t end = input_.find("?>", pos_);
      pos_ = (end == std::string_view::npos) ? input_.size() : end + 2;
    }
    SkipWhitespaceAndComments();
  }

  Result<std::string> ParseName() {
    size_t start = pos_;
    while (pos_ < input_.size()) {
      char c = input_[pos_];
      if (std::isalnum(static_cast<unsigned char>(c)) || c == '_' ||
          c == '-' || c == '.' || c == ':') {
        ++pos_;
      } else {
        break;
      }
    }
    if (pos_ == start) {
      return Status::ParseError(StrFormat("expected name at offset %zu", pos_));
    }
    return std::string(input_.substr(start, pos_ - start));
  }

  static std::string Unescape(std::string_view raw) {
    std::string out;
    out.reserve(raw.size());
    for (size_t i = 0; i < raw.size(); ++i) {
      if (raw[i] != '&') {
        out += raw[i];
        continue;
      }
      auto rest = raw.substr(i);
      if (StartsWith(rest, "&amp;")) {
        out += '&';
        i += 4;
      } else if (StartsWith(rest, "&lt;")) {
        out += '<';
        i += 3;
      } else if (StartsWith(rest, "&gt;")) {
        out += '>';
        i += 3;
      } else if (StartsWith(rest, "&quot;")) {
        out += '"';
        i += 5;
      } else if (StartsWith(rest, "&apos;")) {
        out += '\'';
        i += 5;
      } else {
        out += raw[i];
      }
    }
    return out;
  }

  /// `depth` is the nesting level of the element being parsed (root = 1).
  Result<std::unique_ptr<XmlElement>> ParseElement(int depth = 1) {
    if (depth > XmlElement::kMaxDepth) {
      return Status::ParseError(
          StrFormat("elements nested deeper than %d levels at offset %zu",
                    XmlElement::kMaxDepth, pos_));
    }
    if (pos_ >= input_.size() || input_[pos_] != '<') {
      return Status::ParseError(StrFormat("expected '<' at offset %zu", pos_));
    }
    ++pos_;
    ORCA_ASSIGN_OR_RETURN(std::string name, ParseName());
    auto element = std::make_unique<XmlElement>(name);

    // Attributes.
    while (true) {
      SkipWhitespace();
      if (pos_ >= input_.size()) {
        return Status::ParseError("unexpected end of input in element tag");
      }
      if (input_[pos_] == '>' || input_.substr(pos_, 2) == "/>") break;
      ORCA_ASSIGN_OR_RETURN(std::string key, ParseName());
      SkipWhitespace();
      if (pos_ >= input_.size() || input_[pos_] != '=') {
        return Status::ParseError(
            StrFormat("expected '=' after attribute '%s'", key.c_str()));
      }
      ++pos_;
      SkipWhitespace();
      if (pos_ >= input_.size() || input_[pos_] != '"') {
        return Status::ParseError(
            StrFormat("expected '\"' for attribute '%s'", key.c_str()));
      }
      ++pos_;
      size_t start = pos_;
      while (pos_ < input_.size() && input_[pos_] != '"') ++pos_;
      if (pos_ >= input_.size()) {
        return Status::ParseError("unterminated attribute value");
      }
      element->SetAttr(key, Unescape(input_.substr(start, pos_ - start)));
      ++pos_;
    }

    if (input_.substr(pos_, 2) == "/>") {
      pos_ += 2;
      return element;
    }
    ++pos_;  // consume '>'

    // Content: text and child elements.
    std::string text;
    while (true) {
      if (pos_ >= input_.size()) {
        return Status::ParseError(
            StrFormat("unterminated element <%s>", name.c_str()));
      }
      if (input_[pos_] == '<') {
        if (SkipComment()) continue;
        if (input_.substr(pos_, 2) == "</") {
          pos_ += 2;
          ORCA_ASSIGN_OR_RETURN(std::string close, ParseName());
          if (close != name) {
            return Status::ParseError(
                StrFormat("mismatched close tag </%s> for <%s>",
                          close.c_str(), name.c_str()));
          }
          SkipWhitespace();
          if (pos_ >= input_.size() || input_[pos_] != '>') {
            return Status::ParseError("expected '>' in close tag");
          }
          ++pos_;
          break;
        }
        auto child = ParseElement(depth + 1);
        if (!child.ok()) return child.status();
        // Transfer ownership into the parent.
        element->AddChildOwned(std::move(child).value());
      } else {
        text += input_[pos_];
        ++pos_;
      }
    }
    std::string trimmed(StrTrim(text));
    element->set_text(Unescape(trimmed));
    return element;
  }

  std::string_view input_;
  size_t pos_ = 0;
};

}  // namespace

Result<std::unique_ptr<XmlElement>> ParseXml(std::string_view input) {
  XmlParser parser(input);
  return parser.Parse();
}

}  // namespace orcastream::common
