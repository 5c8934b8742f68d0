// Minimal non-validating XML parser.
//
// The repository import path needs to read XML Schema documents (and the
// XML prolog/doctype machinery around DTDs) without external dependencies.
// This parser covers the profile needed for schema files: prolog, comments,
// processing instructions, DOCTYPE (with internal subset capture), elements,
// attributes, character data, CDATA, and the five predefined entities plus
// numeric character references. It is not a full XML 1.0 implementation
// (no external entities, no namespaces processing beyond prefixes-as-text).
#ifndef XSM_XML_XML_PARSER_H_
#define XSM_XML_XML_PARSER_H_

#include <cstddef>
#include <memory>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "util/status.h"

namespace xsm::xml {

/// Deepest element nesting ParseXml accepts (the root is depth 1); deeper
/// input is a ParseError. Parsing and destruction are iterative, so this
/// bounds the work consumers recursing over the tree may face, not the
/// parser's own stack.
inline constexpr size_t kMaxElementDepth = 4096;

/// One parsed element.
struct XmlElement {
  XmlElement() = default;
  /// Iterative: destroying a deeply nested tree never recurses per level.
  ~XmlElement();

  std::string name;  ///< Qualified name as written ("xs:element").
  std::vector<std::pair<std::string, std::string>> attributes;
  std::vector<std::unique_ptr<XmlElement>> children;
  /// Concatenated character data directly under this element (entity
  /// references resolved, surrounding whitespace kept).
  std::string text;

  /// Returns the attribute value or nullptr.
  const std::string* FindAttribute(std::string_view attr_name) const;

  /// Local part of the qualified name ("element" for "xs:element").
  std::string_view LocalName() const;
};

struct XmlDocument {
  std::unique_ptr<XmlElement> root;
  /// Raw internal DTD subset from <!DOCTYPE x [ ... ]>, if present.
  std::string internal_dtd;
  /// DOCTYPE root element name, if a DOCTYPE was present.
  std::string doctype_name;
};

/// Parses a complete document. Errors carry 1-based line numbers; nesting
/// deeper than kMaxElementDepth is rejected.
Result<XmlDocument> ParseXml(std::string_view input);

/// Decodes the five predefined entities and numeric character references in
/// `s` (exposed for tests; unknown entities are passed through verbatim).
std::string DecodeEntities(std::string_view s);

}  // namespace xsm::xml

#endif  // XSM_XML_XML_PARSER_H_
