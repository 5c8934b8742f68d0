#include "generate/schema_mapping.h"

#include "util/string_util.h"

namespace xsm::generate {

namespace {

// Appends the root path of `node` ("lib/shelf/book") without collecting the
// path first: one walk up the parent chain sizes it, a second writes the
// names back to front into the space reserved for them.
void AppendRootPath(std::string* out, const schema::SchemaTree& tree,
                    schema::NodeId node) {
  size_t length = 0;
  for (schema::NodeId n = node; n != schema::kInvalidNode;
       n = tree.parent(n)) {
    length += tree.name(n).size() + 1;  // name and its '/' separator
  }
  if (length == 0) return;
  --length;  // the root has no separator before it
  const size_t begin = out->size();
  out->resize(begin + length);
  char* end = out->data() + begin + length;
  for (schema::NodeId n = node; n != schema::kInvalidNode;) {
    const std::string& name = tree.name(n);
    end -= name.size();
    name.copy(end, name.size());
    n = tree.parent(n);
    if (n != schema::kInvalidNode) *--end = '/';
  }
}

}  // namespace

void AppendMappingText(std::string* out, const SchemaMapping& mapping,
                       const schema::SchemaTree& personal,
                       const schema::SchemaForest& repo) {
  out->append("tree=");
  AppendInteger(out, mapping.tree);
  out->append(" \xCE\x94=");  // Δ
  AppendFixed(out, mapping.delta, 4);
  out->append(" (sim=");
  AppendFixed(out, mapping.delta_sim, 4);
  out->append(" path=");
  AppendFixed(out, mapping.delta_path, 4);
  out->append(") [");
  const schema::SchemaTree& t = repo.tree(mapping.tree);
  for (size_t i = 0; i < mapping.images.size(); ++i) {
    if (i > 0) out->append(", ");
    out->append(personal.name(static_cast<schema::NodeId>(i)));
    out->append("\xE2\x86\x92");  // →
    AppendRootPath(out, t, mapping.images[i]);
  }
  out->push_back(']');
}

std::string MappingToString(const SchemaMapping& mapping,
                            const schema::SchemaTree& personal,
                            const schema::SchemaForest& repo) {
  std::string out;
  AppendMappingText(&out, mapping, personal, repo);
  return out;
}

}  // namespace xsm::generate
