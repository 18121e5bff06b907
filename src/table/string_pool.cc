#include "table/string_pool.h"

#include <cassert>

namespace ms {

void StringPool::EnsureIndexLocked() const {
  if (indexed_ == views_.size()) return;
  index_.reserve(views_.size());
  for (; indexed_ < views_.size(); ++indexed_) {
    // Keep-first on duplicates, matching Intern(): ids stay dense either
    // way, and persisted pools are deduplicated by construction.
    index_.emplace(views_[indexed_], static_cast<ValueId>(indexed_));
  }
}

ValueId StringPool::Intern(std::string_view s) {
  std::lock_guard<std::mutex> lock(mu_);
  EnsureIndexLocked();
  auto it = index_.find(s);
  if (it != index_.end()) return it->second;
  if (read_only_) return kInvalidValueId;
  owned_.emplace_back(s);
  views_.push_back(std::string_view(owned_.back()));
  ValueId id = static_cast<ValueId>(views_.size() - 1);
  index_.emplace(views_.back(), id);
  indexed_ = views_.size();
  return id;
}

void StringPool::InternBatch(const std::vector<std::string>& strs,
                             std::vector<ValueId>* ids) {
  std::lock_guard<std::mutex> lock(mu_);
  EnsureIndexLocked();
  ids->reserve(ids->size() + strs.size());
  for (const std::string& s : strs) {
    auto it = index_.find(s);
    if (it != index_.end()) {
      ids->push_back(it->second);
      continue;
    }
    if (read_only_) {
      ids->push_back(kInvalidValueId);
      continue;
    }
    owned_.emplace_back(s);
    views_.push_back(std::string_view(owned_.back()));
    ValueId id = static_cast<ValueId>(views_.size() - 1);
    index_.emplace(views_.back(), id);
    indexed_ = views_.size();
    ids->push_back(id);
  }
}

void StringPool::AdoptExternal(const std::vector<std::string_view>& views) {
  std::lock_guard<std::mutex> lock(mu_);
  if (read_only_) return;
  views_.reserve(views_.size() + views.size());
  // Deliberately no index_ update: the hash build is deferred until the
  // first string -> id lookup (EnsureIndexLocked), so id-only consumers
  // (serving from a restored snapshot) never pay it.
  for (std::string_view v : views) {
    views_.push_back(v);
  }
}

void StringPool::RetainBacking(std::shared_ptr<const void> backing) {
  std::lock_guard<std::mutex> lock(mu_);
  backings_.push_back(std::move(backing));
}

void StringPool::MarkReadOnly() {
  std::lock_guard<std::mutex> lock(mu_);
  read_only_ = true;
}

bool StringPool::read_only() const {
  std::lock_guard<std::mutex> lock(mu_);
  return read_only_;
}

void StringPool::TruncateTo(size_t new_size) {
  std::lock_guard<std::mutex> lock(mu_);
  if (new_size >= views_.size()) return;
  ++truncations_;
  for (size_t i = views_.size(); i-- > new_size;) {
    // Keep-first duplicate semantics: only drop the index entry if this id
    // owns it (a tail duplicate of an earlier string must not unmap it).
    auto it = index_.find(views_[i]);
    if (it != index_.end() && it->second == static_cast<ValueId>(i)) {
      index_.erase(it);
    }
    // Owned strings are appended to owned_ in id order, so the tail of
    // views_ that points into owned_ is exactly the tail of owned_.
    if (!owned_.empty() && views_[i].data() == owned_.back().data()) {
      owned_.pop_back();
    }
  }
  views_.resize(new_size);
  if (indexed_ > new_size) indexed_ = new_size;
}

ValueId StringPool::Find(std::string_view s) const {
  std::lock_guard<std::mutex> lock(mu_);
  EnsureIndexLocked();
  auto it = index_.find(s);
  return it == index_.end() ? kInvalidValueId : it->second;
}

std::string_view StringPool::Get(ValueId id) const {
  std::lock_guard<std::mutex> lock(mu_);
  assert(id < views_.size());
  return views_[id];
}

size_t StringPool::size() const {
  std::lock_guard<std::mutex> lock(mu_);
  return views_.size();
}

uint64_t StringPool::truncations() const {
  std::lock_guard<std::mutex> lock(mu_);
  return truncations_;
}

size_t StringPool::indexed_strings() const {
  std::lock_guard<std::mutex> lock(mu_);
  return indexed_;
}

}  // namespace ms
