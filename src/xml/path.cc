#include "src/xml/path.h"

#include "src/common/string_util.h"

namespace dipbench {
namespace xml {
namespace {

struct Step {
  std::string name;     // "*" means any
  bool descendant = false;  // introduced by "//"
};

std::vector<Step> ParsePath(const std::string& path, bool* absolute) {
  std::string p = path;
  *absolute = false;
  if (StartsWith(p, "//")) {
    // A root-level descendant search: mark the first step as descendant.
    p = p.substr(2);
    std::vector<Step> steps;
    bool next_descendant = true;
    std::string cur;
    for (size_t i = 0; i <= p.size(); ++i) {
      if (i == p.size() || p[i] == '/') {
        if (!cur.empty()) {
          steps.push_back(Step{cur, next_descendant});
          next_descendant = false;
          cur.clear();
        } else if (i < p.size()) {
          next_descendant = true;  // saw "//"
        }
        continue;
      }
      cur.push_back(p[i]);
    }
    return steps;
  }
  if (StartsWith(p, "/")) {
    *absolute = true;
    p = p.substr(1);
  }
  std::vector<Step> steps;
  bool next_descendant = false;
  std::string cur;
  for (size_t i = 0; i <= p.size(); ++i) {
    if (i == p.size() || p[i] == '/') {
      if (!cur.empty()) {
        steps.push_back(Step{cur, next_descendant});
        next_descendant = false;
        cur.clear();
      } else if (i < p.size()) {
        next_descendant = true;  // empty segment means we saw "//"
      }
      continue;
    }
    cur.push_back(p[i]);
  }
  return steps;
}

bool StepMatches(const Step& step, const Node& node) {
  return step.name == "*" || step.name == node.name();
}

void CollectDescendants(const Node& node, const Step& step,
                        std::vector<const Node*>* out) {
  if (StepMatches(step, node)) out->push_back(&node);
  for (const Node& c : node.children()) CollectDescendants(c, step, out);
}

void Evaluate(const std::vector<const Node*>& current,
              const std::vector<Step>& steps, size_t step_idx,
              std::vector<const Node*>* out) {
  if (step_idx == steps.size()) {
    out->insert(out->end(), current.begin(), current.end());
    return;
  }
  const Step& step = steps[step_idx];
  std::vector<const Node*> next;
  for (const Node* n : current) {
    if (step.descendant) {
      for (const Node& c : n->children()) {
        CollectDescendants(c, step, &next);
      }
    } else {
      for (const Node& c : n->children()) {
        if (StepMatches(step, c)) next.push_back(&c);
      }
    }
  }
  Evaluate(next, steps, step_idx + 1, out);
}

}  // namespace

std::vector<const Node*> SelectNodes(const Node& root,
                                     const std::string& path) {
  bool absolute = false;
  std::vector<Step> steps = ParsePath(path, &absolute);
  std::vector<const Node*> out;
  if (steps.empty()) return out;
  if (StartsWith(path, "//")) {
    // Descendant search from the root element itself.
    std::vector<const Node*> matches;
    CollectDescendants(root, steps[0], &matches);
    Evaluate(matches, steps, 1, &out);
    return out;
  }
  if (absolute) {
    // First step must match the document element.
    if (!StepMatches(steps[0], root)) return out;
    Evaluate({&root}, steps, 1, &out);
    return out;
  }
  Evaluate({&root}, steps, 0, &out);
  return out;
}

const Node* SelectFirst(const Node& root, const std::string& path) {
  auto nodes = SelectNodes(root, path);
  return nodes.empty() ? nullptr : nodes.front();
}

Result<std::string> SelectText(const Node& root, const std::string& path) {
  const Node* n = SelectFirst(root, path);
  if (n == nullptr) return Status::NotFound("no node matches " + path);
  return n->text();
}

}  // namespace xml
}  // namespace dipbench
