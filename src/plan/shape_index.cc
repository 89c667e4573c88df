#include "plan/shape_index.h"

#include <algorithm>

namespace orcastream::plan {

namespace {

/// The posting of `shape` among one value's postings, or null.
template <typename Postings>
auto FindShape(Postings& postings, uint32_t shape)
    -> decltype(postings.data()) {
  for (auto& posting : postings) {
    if (posting.shape == shape) return &posting;
  }
  return nullptr;
}

}  // namespace

uint32_t ShapeIndex::ShapeOf(const AttributeValues& values) {
  uint32_t shape = 0;
  for (size_t attr = 0; attr < values.size() && attr < kMaxAttrs; ++attr) {
    if (!values[attr].empty()) shape |= 1u << attr;
  }
  return shape;
}

void ShapeIndex::Add(uint32_t position, const AttributeValues& values) {
  const uint32_t shape = ShapeOf(values);
  auto group =
      std::find_if(groups_.begin(), groups_.end(),
                   [shape](const Group& g) { return g.shape == shape; });
  if (group == groups_.end()) {
    groups_.push_back(Group{shape, 0});
    group = groups_.end() - 1;
  }
  ++group->live;
  if (shape == 0) {
    wildcards_.push_back(position);
    return;
  }
  postings_.resize(std::max(postings_.size(),
                            std::min(values.size(), kMaxAttrs)));
  for (size_t attr = 0; attr < postings_.size() && attr < values.size();
       ++attr) {
    for (const std::string& value : values[attr]) {
      Postings& by_shape = postings_[attr][value];
      Posting* posting = FindShape(by_shape, shape);
      if (posting == nullptr) {
        posting = &by_shape.emplace_back(Posting{shape, 0, {}});
      }
      posting->positions.push_back(position);
      ++posting->live;
    }
  }
}

void ShapeIndex::Kill(const AttributeValues& values) {
  const uint32_t shape = ShapeOf(values);
  for (Group& group : groups_) {
    if (group.shape == shape && group.live > 0) --group.live;
  }
  for (size_t attr = 0; attr < postings_.size() && attr < values.size();
       ++attr) {
    for (const std::string& value : values[attr]) {
      auto it = postings_[attr].find(value);
      if (it == postings_[attr].end()) continue;
      Posting* posting = FindShape(it->second, shape);
      if (posting != nullptr && posting->live > 0) --posting->live;
    }
  }
}

void ShapeIndex::Clear() {
  postings_.clear();
  groups_.clear();
  wildcards_.clear();
}

void ShapeIndex::CollectGroup(uint32_t shape, const Postings* const* found,
                              std::vector<uint32_t>* out) const {
  const std::vector<uint32_t>* lists[kMaxAttrs] = {};
  size_t count = 0;
  size_t smallest = 0;
  for (size_t attr = 0; attr < postings_.size(); ++attr) {
    if ((shape & (1u << attr)) == 0) continue;
    const Posting* posting =
        found[attr] == nullptr ? nullptr : FindShape(*found[attr], shape);
    // An absent or dead posting empties the whole conjunction.
    if (posting == nullptr || posting->live == 0) return;
    if (count > 0 && posting->positions.size() < lists[smallest]->size()) {
      smallest = count;
    }
    lists[count++] = &posting->positions;
  }
  const std::vector<uint32_t>& first = *lists[smallest];
  // One or two entries go straight to the caller's recheck, which costs
  // less than the binary searches that would confirm them. Two covers a
  // lone live entry next to a tombstone under register/unregister churn.
  if (count == 1 || first.size() <= 2) {
    out->insert(out->end(), first.begin(), first.end());
    return;
  }
  for (uint32_t position : first) {
    bool in_all = true;
    for (size_t i = 0; i < count && in_all; ++i) {
      in_all = i == smallest || std::binary_search(lists[i]->begin(),
                                                   lists[i]->end(), position);
    }
    if (in_all) out->push_back(position);
  }
}

void ShapeIndex::Collect(std::initializer_list<const std::string*> probes,
                         std::vector<uint32_t>* out) const {
  out->clear();
  // Probe each attribute a live group filters on once; every group
  // filtering on it reads the same postings.
  uint32_t probed = 0;
  for (const Group& group : groups_) {
    if (group.live > 0) probed |= group.shape;
  }
  const Postings* found[kMaxAttrs] = {};
  size_t attr = 0;
  for (const std::string* probe : probes) {
    if (attr >= postings_.size()) break;
    if ((probed & (1u << attr)) != 0) {
      auto it = postings_[attr].find(*probe);
      if (it != postings_[attr].end()) found[attr] = &it->second;
    }
    ++attr;
  }
  for (const Group& group : groups_) {
    if (group.live == 0) continue;
    if (group.shape == 0) {
      out->insert(out->end(), wildcards_.begin(), wildcards_.end());
    } else {
      CollectGroup(group.shape, found, out);
    }
  }
  // Groups partition the positions, so the union holds no duplicates.
  std::sort(out->begin(), out->end());
}

}  // namespace orcastream::plan
