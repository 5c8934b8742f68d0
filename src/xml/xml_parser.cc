#include "xml/xml_parser.h"

#include <cctype>
#include <cstdlib>
#include <utility>

namespace xsm::xml {

XmlElement::~XmlElement() {
  std::vector<std::unique_ptr<XmlElement>> pending = std::move(children);
  while (!pending.empty()) {
    std::unique_ptr<XmlElement> element = std::move(pending.back());
    pending.pop_back();
    for (auto& child : element->children) pending.push_back(std::move(child));
    element->children.clear();  // nothing left to destroy recursively
  }
}

const std::string* XmlElement::FindAttribute(
    std::string_view attr_name) const {
  for (const auto& [key, value] : attributes) {
    if (key == attr_name) return &value;
  }
  return nullptr;
}

std::string_view XmlElement::LocalName() const {
  size_t colon = name.rfind(':');
  return colon == std::string::npos
             ? std::string_view(name)
             : std::string_view(name).substr(colon + 1);
}

std::string DecodeEntities(std::string_view s) {
  std::string out;
  out.reserve(s.size());
  for (size_t i = 0; i < s.size();) {
    if (s[i] != '&') {
      out.push_back(s[i++]);
      continue;
    }
    size_t semi = s.find(';', i);
    if (semi == std::string_view::npos || semi - i > 10) {
      out.push_back(s[i++]);  // Lone '&': pass through.
      continue;
    }
    std::string_view entity = s.substr(i + 1, semi - i - 1);
    if (entity == "lt") {
      out.push_back('<');
    } else if (entity == "gt") {
      out.push_back('>');
    } else if (entity == "amp") {
      out.push_back('&');
    } else if (entity == "apos") {
      out.push_back('\'');
    } else if (entity == "quot") {
      out.push_back('"');
    } else if (!entity.empty() && entity[0] == '#') {
      long code = 0;
      if (entity.size() > 2 && (entity[1] == 'x' || entity[1] == 'X')) {
        code = std::strtol(std::string(entity.substr(2)).c_str(), nullptr,
                           16);
      } else {
        code =
            std::strtol(std::string(entity.substr(1)).c_str(), nullptr, 10);
      }
      // Emit ASCII directly; encode the rest as UTF-8 (two/three bytes
      // cover the BMP, which is all schema files use in practice).
      if (code > 0 && code < 0x80) {
        out.push_back(static_cast<char>(code));
      } else if (code < 0x800) {
        out.push_back(static_cast<char>(0xC0 | (code >> 6)));
        out.push_back(static_cast<char>(0x80 | (code & 0x3F)));
      } else if (code < 0x10000) {
        out.push_back(static_cast<char>(0xE0 | (code >> 12)));
        out.push_back(static_cast<char>(0x80 | ((code >> 6) & 0x3F)));
        out.push_back(static_cast<char>(0x80 | (code & 0x3F)));
      }
    } else {
      // Unknown entity: keep verbatim.
      out.append(s.substr(i, semi - i + 1));
    }
    i = semi + 1;
  }
  return out;
}

namespace {

bool IsNameStartChar(char c) {
  unsigned char u = static_cast<unsigned char>(c);
  return std::isalpha(u) || c == '_' || c == ':' || u >= 0x80;
}

bool IsNameChar(char c) {
  unsigned char u = static_cast<unsigned char>(c);
  return std::isalnum(u) || c == '_' || c == ':' || c == '-' || c == '.' ||
         u >= 0x80;
}

class Parser {
 public:
  explicit Parser(std::string_view input) : in_(input) {}

  Result<XmlDocument> Parse() {
    SkipBom();
    XmlDocument doc;
    // Prolog: XML declaration, comments, PIs, DOCTYPE, whitespace.
    XSM_RETURN_NOT_OK(SkipMisc(&doc, /*allow_doctype=*/true));
    if (AtEnd() || Peek() != '<') {
      return Error("expected root element");
    }
    XSM_ASSIGN_OR_RETURN(doc.root, ParseElement());
    // Trailing misc.
    XSM_RETURN_NOT_OK(SkipMisc(&doc, /*allow_doctype=*/false));
    if (!AtEnd()) {
      return Error("content after document end");
    }
    return doc;
  }

 private:
  bool AtEnd() const { return pos_ >= in_.size(); }
  char Peek() const { return in_[pos_]; }
  char PeekAt(size_t off) const {
    return pos_ + off < in_.size() ? in_[pos_ + off] : '\0';
  }
  void Advance() {
    if (in_[pos_] == '\n') ++line_;
    ++pos_;
  }
  bool Consume(std::string_view token) {
    if (in_.substr(pos_).substr(0, token.size()) != token) return false;
    for (size_t i = 0; i < token.size(); ++i) Advance();
    return true;
  }
  void SkipWhitespace() {
    while (!AtEnd() && std::isspace(static_cast<unsigned char>(Peek()))) {
      Advance();
    }
  }
  void SkipBom() {
    if (in_.substr(0, 3) == "\xEF\xBB\xBF") pos_ = 3;
  }

  Status Error(const std::string& msg) const {
    return Status::ParseError("line " + std::to_string(line_) + ": " + msg);
  }

  // Skips whitespace, comments, PIs, the XML declaration, and (optionally)
  // one DOCTYPE.
  Status SkipMisc(XmlDocument* doc, bool allow_doctype) {
    while (true) {
      SkipWhitespace();
      if (Consume("<?")) {
        size_t end = in_.find("?>", pos_);
        if (end == std::string_view::npos) return Error("unterminated PI");
        while (pos_ < end + 2) Advance();
      } else if (in_.substr(pos_, 4) == "<!--") {
        size_t end = in_.find("-->", pos_ + 4);
        if (end == std::string_view::npos) {
          return Error("unterminated comment");
        }
        while (pos_ < end + 3) Advance();
      } else if (in_.substr(pos_, 9) == "<!DOCTYPE") {
        if (!allow_doctype) return Error("unexpected DOCTYPE");
        XSM_RETURN_NOT_OK(ParseDoctype(doc));
      } else {
        return Status::OK();
      }
    }
  }

  Status ParseDoctype(XmlDocument* doc) {
    Consume("<!DOCTYPE");
    SkipWhitespace();
    XSM_ASSIGN_OR_RETURN(doc->doctype_name, ParseName());
    // Scan to '>' honoring an optional [...] internal subset and quoted
    // public/system literals.
    while (true) {
      if (AtEnd()) return Error("unterminated DOCTYPE");
      char c = Peek();
      if (c == '[') {
        Advance();
        size_t start = pos_;
        int depth = 1;
        while (!AtEnd() && depth > 0) {
          if (Peek() == '[') ++depth;
          if (Peek() == ']') --depth;
          if (depth > 0) Advance();
        }
        if (AtEnd()) return Error("unterminated DOCTYPE internal subset");
        doc->internal_dtd = std::string(in_.substr(start, pos_ - start));
        Advance();  // ']'
      } else if (c == '"' || c == '\'') {
        char quote = c;
        Advance();
        while (!AtEnd() && Peek() != quote) Advance();
        if (AtEnd()) return Error("unterminated literal in DOCTYPE");
        Advance();
      } else if (c == '>') {
        Advance();
        return Status::OK();
      } else {
        Advance();
      }
    }
  }

  Result<std::string> ParseName() {
    if (AtEnd() || !IsNameStartChar(Peek())) {
      return Error("expected name");
    }
    size_t start = pos_;
    while (!AtEnd() && IsNameChar(Peek())) Advance();
    return std::string(in_.substr(start, pos_ - start));
  }

  /// Parses one start tag (name and attributes) at '<'; `*empty` reports a
  /// self-closing "<x/>".
  Result<std::unique_ptr<XmlElement>> ParseStartTag(bool* empty) {
    if (!Consume("<")) return Error("expected '<'");
    auto element = std::make_unique<XmlElement>();
    XSM_ASSIGN_OR_RETURN(element->name, ParseName());

    // Attributes.
    while (true) {
      SkipWhitespace();
      if (AtEnd()) return Error("unterminated start tag");
      if (Peek() == '/' || Peek() == '>') break;
      XSM_ASSIGN_OR_RETURN(std::string attr_name, ParseName());
      SkipWhitespace();
      if (!Consume("=")) return Error("expected '=' after attribute name");
      SkipWhitespace();
      if (AtEnd() || (Peek() != '"' && Peek() != '\'')) {
        return Error("expected quoted attribute value");
      }
      char quote = Peek();
      Advance();
      size_t start = pos_;
      while (!AtEnd() && Peek() != quote) {
        if (Peek() == '<') return Error("'<' in attribute value");
        Advance();
      }
      if (AtEnd()) return Error("unterminated attribute value");
      element->attributes.emplace_back(
          std::move(attr_name),
          DecodeEntities(in_.substr(start, pos_ - start)));
      Advance();  // closing quote
    }

    *empty = Consume("/>");
    if (!*empty && !Consume(">")) return Error("expected '>'");
    return element;
  }

  /// Parses the element starting at '<' with all its descendants. Nesting
  /// lives on an explicit stack of open elements (outermost first), so the
  /// input's depth never reaches the call stack.
  Result<std::unique_ptr<XmlElement>> ParseElement() {
    bool empty = false;
    XSM_ASSIGN_OR_RETURN(std::unique_ptr<XmlElement> root,
                         ParseStartTag(&empty));
    if (empty) return root;
    std::vector<std::unique_ptr<XmlElement>> open;
    open.push_back(std::move(root));

    // Content of the innermost open element.
    while (true) {
      XmlElement* element = open.back().get();
      if (AtEnd()) return Error("unterminated element '" + element->name +
                                "'");
      if (in_.substr(pos_, 4) == "<!--") {
        size_t end = in_.find("-->", pos_ + 4);
        if (end == std::string_view::npos) {
          return Error("unterminated comment");
        }
        while (pos_ < end + 3) Advance();
      } else if (in_.substr(pos_, 9) == "<![CDATA[") {
        size_t end = in_.find("]]>", pos_ + 9);
        if (end == std::string_view::npos) return Error("unterminated CDATA");
        element->text.append(in_.substr(pos_ + 9, end - pos_ - 9));
        while (pos_ < end + 3) Advance();
      } else if (in_.substr(pos_, 2) == "<?") {
        size_t end = in_.find("?>", pos_);
        if (end == std::string_view::npos) return Error("unterminated PI");
        while (pos_ < end + 2) Advance();
      } else if (in_.substr(pos_, 2) == "</") {
        Consume("</");
        XSM_ASSIGN_OR_RETURN(std::string end_name, ParseName());
        if (end_name != element->name) {
          return Error("mismatched end tag: expected </" + element->name +
                       "> got </" + end_name + ">");
        }
        SkipWhitespace();
        if (!Consume(">")) return Error("expected '>' in end tag");
        std::unique_ptr<XmlElement> closed = std::move(open.back());
        open.pop_back();
        if (open.empty()) return closed;
        open.back()->children.push_back(std::move(closed));
      } else if (Peek() == '<') {
        if (open.size() >= kMaxElementDepth) {
          return Error("element nesting deeper than " +
                       std::to_string(kMaxElementDepth));
        }
        XSM_ASSIGN_OR_RETURN(std::unique_ptr<XmlElement> child,
                             ParseStartTag(&empty));
        if (empty) {
          element->children.push_back(std::move(child));
        } else {
          open.push_back(std::move(child));
        }
      } else {
        size_t start = pos_;
        while (!AtEnd() && Peek() != '<') Advance();
        element->text.append(
            DecodeEntities(in_.substr(start, pos_ - start)));
      }
    }
  }

  std::string_view in_;
  size_t pos_ = 0;
  int line_ = 1;
};

}  // namespace

Result<XmlDocument> ParseXml(std::string_view input) {
  return Parser(input).Parse();
}

}  // namespace xsm::xml
