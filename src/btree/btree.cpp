#include "btree/btree.hpp"

#include <algorithm>
#include <cmath>

#include "common/expect.hpp"
#include "common/rng.hpp"

namespace harmonia::btree {

namespace {

/// Child to descend into = number of separators <= key.
std::size_t child_index(const Node* node, Key key) {
  const auto it = std::upper_bound(node->keys.begin(), node->keys.end(), key);
  return static_cast<std::size_t>(it - node->keys.begin());
}

/// Node sizes for one level of `count` items: `target` per node, and no
/// tail node below `min` (nodes hold at most `max`).
std::vector<std::uint32_t> group(std::size_t count, std::size_t target, std::size_t min,
                                 std::size_t max) {
  std::vector<std::uint32_t> sizes;
  sizes.reserve(count / target + 1);
  for (std::size_t i = 0; i < count;) {
    std::size_t take = std::min(target, count - i);
    // Avoid a final underfull node: absorb a short tail into this node
    // if it fits, otherwise split the remainder evenly.
    const std::size_t rest = count - i - take;
    if (rest > 0 && rest < min) take = take + rest <= max ? take + rest : (take + rest + 1) / 2;
    sizes.push_back(static_cast<std::uint32_t>(take));
    i += take;
  }
  return sizes;
}

/// Keys per leaf at `fill_factor`, within [max(1, min keys), max keys].
std::size_t target_keys(unsigned fanout, double fill_factor) {
  HARMONIA_CHECK_MSG(fanout >= 4, "fanout must be >= 4");
  HARMONIA_CHECK(fill_factor > 0.0 && fill_factor <= 1.0);
  const std::size_t max_keys = fanout - 1;
  return std::clamp<std::size_t>(
      static_cast<std::size_t>(std::lround(static_cast<double>(max_keys) * fill_factor)),
      std::max<std::size_t>(1, max_keys / 2), max_keys);
}

}  // namespace

std::vector<std::uint32_t> plan_leaves(std::size_t entries, unsigned fanout, double fill_factor) {
  return group(entries, target_keys(fanout, fill_factor), (fanout - 1) / 2, fanout - 1);
}

std::vector<std::vector<std::uint32_t>> plan_internal_levels(std::size_t leaves, unsigned fanout,
                                                             double fill_factor) {
  // A node of k keys has k + 1 children; the minimum is max_keys / 2 + 1.
  const std::size_t min_children = (fanout - 1) / 2 + 1;
  const std::size_t target = target_keys(fanout, fill_factor) + 1;
  std::vector<std::vector<std::uint32_t>> levels;
  for (std::size_t nodes = leaves; nodes > 1; nodes = levels.back().size()) {
    levels.push_back(group(nodes, target, min_children, fanout));
  }
  std::reverse(levels.begin(), levels.end());
  return levels;
}

BTree::BTree(unsigned fanout) : fanout_(fanout) {
  HARMONIA_CHECK_MSG(fanout >= 4, "fanout must be >= 4");
}

unsigned BTree::height() const {
  unsigned h = 0;
  for (const Node* n = root_.get(); n != nullptr; n = n->leaf ? nullptr : n->children[0].get()) {
    ++h;
  }
  return h;
}

const Node* BTree::descend_to_leaf(Key key) const {
  const Node* node = root_.get();
  while (node != nullptr && !node->leaf) {
    node = node->children[child_index(node, key)].get();
  }
  return node;
}

std::optional<Value> BTree::search(Key key) const {
  const Node* leaf = descend_to_leaf(key);
  if (leaf == nullptr) return std::nullopt;
  const auto it = std::lower_bound(leaf->keys.begin(), leaf->keys.end(), key);
  if (it == leaf->keys.end() || *it != key) return std::nullopt;
  return leaf->values[static_cast<std::size_t>(it - leaf->keys.begin())];
}

bool BTree::insert(Key key, Value value) {
  if (!root_) {
    root_ = std::make_unique<Node>();
    root_->leaf = true;
  }
  bool inserted = false;
  auto split = insert_rec(root_.get(), key, value, &inserted);
  if (split) {
    auto new_root = std::make_unique<Node>();
    new_root->leaf = false;
    new_root->keys.push_back(split->separator);
    new_root->children.push_back(std::move(root_));
    new_root->children.push_back(std::move(split->right));
    root_ = std::move(new_root);
  }
  if (inserted) ++size_;
  return inserted;
}

std::optional<BTree::SplitResult> BTree::insert_rec(Node* node, Key key, Value value,
                                                    bool* inserted) {
  if (node->leaf) {
    const auto it = std::lower_bound(node->keys.begin(), node->keys.end(), key);
    const auto pos = static_cast<std::size_t>(it - node->keys.begin());
    if (it != node->keys.end() && *it == key) {
      node->values[pos] = value;  // overwrite existing
      *inserted = false;
      return std::nullopt;
    }
    node->keys.insert(it, key);
    node->values.insert(node->values.begin() + static_cast<std::ptrdiff_t>(pos), value);
    *inserted = true;
    if (node->keys.size() <= max_keys()) return std::nullopt;

    // Leaf split: right half moves to a new node; separator = right's min.
    const std::size_t mid = node->keys.size() / 2;
    auto right = std::make_unique<Node>();
    right->leaf = true;
    right->keys.assign(node->keys.begin() + static_cast<std::ptrdiff_t>(mid), node->keys.end());
    right->values.assign(node->values.begin() + static_cast<std::ptrdiff_t>(mid),
                         node->values.end());
    node->keys.resize(mid);
    node->values.resize(mid);
    right->next = node->next;
    node->next = right.get();
    return SplitResult{right->keys.front(), std::move(right)};
  }

  const std::size_t idx = child_index(node, key);
  auto child_split = insert_rec(node->children[idx].get(), key, value, inserted);
  if (!child_split) return std::nullopt;

  node->keys.insert(node->keys.begin() + static_cast<std::ptrdiff_t>(idx),
                    child_split->separator);
  node->children.insert(node->children.begin() + static_cast<std::ptrdiff_t>(idx) + 1,
                        std::move(child_split->right));
  if (node->keys.size() <= max_keys()) return std::nullopt;

  // Internal split: the middle separator moves up.
  const std::size_t mid = node->keys.size() / 2;
  const Key separator = node->keys[mid];
  auto right = std::make_unique<Node>();
  right->leaf = false;
  right->keys.assign(node->keys.begin() + static_cast<std::ptrdiff_t>(mid) + 1,
                     node->keys.end());
  right->children.reserve(node->children.size() - mid - 1);
  for (std::size_t i = mid + 1; i < node->children.size(); ++i) {
    right->children.push_back(std::move(node->children[i]));
  }
  node->keys.resize(mid);
  node->children.resize(mid + 1);
  return SplitResult{separator, std::move(right)};
}

bool BTree::update(Key key, Value value) {
  Node* node = root_.get();
  while (node != nullptr && !node->leaf) {
    node = node->children[child_index(node, key)].get();
  }
  if (node == nullptr) return false;
  const auto it = std::lower_bound(node->keys.begin(), node->keys.end(), key);
  if (it == node->keys.end() || *it != key) return false;
  node->values[static_cast<std::size_t>(it - node->keys.begin())] = value;
  return true;
}

bool BTree::erase(Key key) {
  if (!root_) return false;
  bool erased = false;
  erase_rec(root_.get(), key, &erased);
  if (!erased) return false;
  --size_;
  // Shrink the root: an internal root with one child is replaced by it;
  // an empty leaf root means the tree is empty.
  if (!root_->leaf && root_->keys.empty()) {
    root_ = std::move(root_->children[0]);
  } else if (root_->leaf && root_->keys.empty()) {
    root_.reset();
  }
  return true;
}

bool BTree::erase_rec(Node* node, Key key, bool* erased) {
  if (node->leaf) {
    const auto it = std::lower_bound(node->keys.begin(), node->keys.end(), key);
    if (it == node->keys.end() || *it != key) {
      *erased = false;
      return false;
    }
    const auto pos = static_cast<std::size_t>(it - node->keys.begin());
    node->keys.erase(it);
    node->values.erase(node->values.begin() + static_cast<std::ptrdiff_t>(pos));
    *erased = true;
    return node->keys.size() < min_keys();
  }

  const std::size_t idx = child_index(node, key);
  const bool child_underflow = erase_rec(node->children[idx].get(), key, erased);
  if (child_underflow) rebalance_child(node, idx);
  return node->keys.size() < min_keys();
}

void BTree::rebalance_child(Node* parent, std::size_t idx) {
  Node* child = parent->children[idx].get();
  Node* left = idx > 0 ? parent->children[idx - 1].get() : nullptr;
  Node* right = idx + 1 < parent->children.size() ? parent->children[idx + 1].get() : nullptr;

  if (left != nullptr && left->keys.size() > min_keys()) {
    // Borrow the left sibling's last entry/child.
    if (child->leaf) {
      child->keys.insert(child->keys.begin(), left->keys.back());
      child->values.insert(child->values.begin(), left->values.back());
      left->keys.pop_back();
      left->values.pop_back();
      parent->keys[idx - 1] = child->keys.front();
    } else {
      child->keys.insert(child->keys.begin(), parent->keys[idx - 1]);
      parent->keys[idx - 1] = left->keys.back();
      left->keys.pop_back();
      child->children.insert(child->children.begin(), std::move(left->children.back()));
      left->children.pop_back();
    }
    return;
  }

  if (right != nullptr && right->keys.size() > min_keys()) {
    // Borrow the right sibling's first entry/child.
    if (child->leaf) {
      child->keys.push_back(right->keys.front());
      child->values.push_back(right->values.front());
      right->keys.erase(right->keys.begin());
      right->values.erase(right->values.begin());
      parent->keys[idx] = right->keys.front();
    } else {
      child->keys.push_back(parent->keys[idx]);
      parent->keys[idx] = right->keys.front();
      right->keys.erase(right->keys.begin());
      child->children.push_back(std::move(right->children.front()));
      right->children.erase(right->children.begin());
    }
    return;
  }

  // Merge with a sibling; l_idx is the left node of the merged pair.
  const std::size_t l_idx = left != nullptr ? idx - 1 : idx;
  Node* l = parent->children[l_idx].get();
  Node* r = parent->children[l_idx + 1].get();
  if (l->leaf) {
    l->keys.insert(l->keys.end(), r->keys.begin(), r->keys.end());
    l->values.insert(l->values.end(), r->values.begin(), r->values.end());
    l->next = r->next;
  } else {
    l->keys.push_back(parent->keys[l_idx]);
    l->keys.insert(l->keys.end(), r->keys.begin(), r->keys.end());
    for (auto& c : r->children) l->children.push_back(std::move(c));
  }
  parent->keys.erase(parent->keys.begin() + static_cast<std::ptrdiff_t>(l_idx));
  parent->children.erase(parent->children.begin() + static_cast<std::ptrdiff_t>(l_idx) + 1);
}

std::vector<Entry> BTree::range(Key lo, Key hi, std::size_t limit) const {
  std::vector<Entry> out;
  if (lo > hi) return out;
  const Node* leaf = descend_to_leaf(lo);
  if (leaf == nullptr) return out;
  auto it = std::lower_bound(leaf->keys.begin(), leaf->keys.end(), lo);
  auto pos = static_cast<std::size_t>(it - leaf->keys.begin());
  while (leaf != nullptr) {
    for (; pos < leaf->keys.size(); ++pos) {
      if (leaf->keys[pos] > hi) return out;
      out.push_back({leaf->keys[pos], leaf->values[pos]});
      if (limit != 0 && out.size() >= limit) return out;
    }
    leaf = leaf->next;
    pos = 0;
  }
  return out;
}

void BTree::bulk_load(std::span<const Entry> entries, double fill_factor) {
  const auto leaf_sizes = plan_leaves(entries.size(), fanout_, fill_factor);
  root_.reset();
  size_ = 0;
  if (entries.empty()) return;
  for (std::size_t i = 1; i < entries.size(); ++i) {
    HARMONIA_CHECK_MSG(entries[i - 1].key < entries[i].key,
                       "bulk_load input must be sorted and distinct");
  }

  // Build the leaf level, linked left to right.
  struct Built {
    std::unique_ptr<Node> node;
    Key min_key;
  };
  std::vector<Built> level;
  level.reserve(leaf_sizes.size());
  std::size_t i = 0;
  for (const std::uint32_t take : leaf_sizes) {
    auto node = std::make_unique<Node>();
    for (const Entry& e : entries.subspan(i, take)) {
      node->keys.push_back(e.key);
      node->values.push_back(e.value);
    }
    if (!level.empty()) level.back().node->next = node.get();
    level.push_back({std::move(node), entries[i].key});
    i += take;
  }
  size_ = entries.size();

  // Build the internal levels bottom-up, up to the root.
  const auto internal = plan_internal_levels(level.size(), fanout_, fill_factor);
  for (auto counts = internal.rbegin(); counts != internal.rend(); ++counts) {
    std::vector<Built> parents;
    std::size_t c = 0;
    for (const std::uint32_t take : *counts) {
      auto node = std::make_unique<Node>();
      node->leaf = false;
      for (std::size_t j = 0; j < take; ++j) {
        if (j > 0) node->keys.push_back(level[c + j].min_key);
        node->children.push_back(std::move(level[c + j].node));
      }
      parents.push_back({std::move(node), level[c].min_key});
      c += take;
    }
    level = std::move(parents);
  }
  root_ = std::move(level.front().node);
}

std::vector<std::vector<const Node*>> BTree::levels() const {
  std::vector<std::vector<const Node*>> out;
  if (!root_) return out;
  std::vector<const Node*> current{root_.get()};
  while (!current.empty()) {
    out.push_back(current);
    std::vector<const Node*> next;
    for (const Node* n : current) {
      if (n->leaf) continue;
      for (const auto& c : n->children) next.push_back(c.get());
    }
    current = std::move(next);
  }
  return out;
}

const Node* BTree::first_leaf() const {
  const Node* node = root_.get();
  while (node != nullptr && !node->leaf) node = node->children[0].get();
  return node;
}

void BTree::validate() const {
  if (!root_) {
    HARMONIA_CHECK(size_ == 0);
    return;
  }
  const unsigned leaf_depth = height();
  validate_rec(root_.get(), 1, leaf_depth, std::nullopt, std::nullopt);

  // Leaf chain covers exactly size_ keys, in strictly ascending order.
  std::uint64_t seen = 0;
  std::optional<Key> prev;
  for (const Node* leaf = first_leaf(); leaf != nullptr; leaf = leaf->next) {
    for (Key k : leaf->keys) {
      if (prev) HARMONIA_CHECK_MSG(*prev < k, "leaf chain out of order");
      prev = k;
      ++seen;
    }
  }
  HARMONIA_CHECK_MSG(seen == size_, "leaf chain covers " << seen << " keys, size() = " << size_);
}

void BTree::validate_rec(const Node* node, unsigned depth, unsigned leaf_depth,
                         std::optional<Key> lo, std::optional<Key> hi) const {
  HARMONIA_CHECK(std::is_sorted(node->keys.begin(), node->keys.end()));
  HARMONIA_CHECK(std::adjacent_find(node->keys.begin(), node->keys.end()) == node->keys.end());
  for (Key k : node->keys) {
    if (lo) HARMONIA_CHECK_MSG(k >= *lo, "key below subtree lower bound");
    if (hi) HARMONIA_CHECK_MSG(k < *hi, "key above subtree upper bound");
  }
  if (node != root_.get()) {
    HARMONIA_CHECK_MSG(node->keys.size() >= min_keys(), "underfull non-root node");
  }
  HARMONIA_CHECK_MSG(node->keys.size() <= max_keys(), "overfull node");

  if (node->leaf) {
    HARMONIA_CHECK_MSG(depth == leaf_depth, "leaves at different depths");
    HARMONIA_CHECK(node->values.size() == node->keys.size());
    HARMONIA_CHECK(node->children.empty());
    return;
  }
  HARMONIA_CHECK(node->values.empty());
  HARMONIA_CHECK_MSG(node->children.size() == node->keys.size() + 1,
                     "internal node children != keys + 1");
  for (std::size_t i = 0; i < node->children.size(); ++i) {
    const std::optional<Key> child_lo = i == 0 ? lo : std::optional<Key>(node->keys[i - 1]);
    const std::optional<Key> child_hi =
        i == node->keys.size() ? hi : std::optional<Key>(node->keys[i]);
    validate_rec(node->children[i].get(), depth + 1, leaf_depth, child_lo, child_hi);
  }
}

Value value_for_key(Key key) { return SplitMix64(key).next(); }

std::vector<Entry> entries_for(std::span<const Key> sorted_keys) {
  std::vector<Entry> entries;
  entries.reserve(sorted_keys.size());
  for (Key k : sorted_keys) entries.push_back({k, value_for_key(k)});
  return entries;
}

BTree make_tree(std::span<const Key> sorted_keys, unsigned fanout, double fill_factor) {
  BTree tree(fanout);
  tree.bulk_load(entries_for(sorted_keys), fill_factor);
  return tree;
}

}  // namespace harmonia::btree
