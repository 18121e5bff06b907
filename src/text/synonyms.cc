#include "text/synonyms.h"

namespace ms {

ValueId SynonymDictionary::FindLocked(ValueId v) const {
  auto it = parent_.find(v);
  if (it == parent_.end() || it->second == v) return v;  // root
  // Path compression.
  ValueId root = FindLocked(it->second);
  if (root != it->second) parent_[v] = root;
  return root;
}

void SynonymDictionary::AddSynonym(std::string_view a, std::string_view b) {
  ValueId ia = pool_->Intern(a);
  ValueId ib = pool_->Intern(b);
  std::lock_guard<std::mutex> lock(mu_);
  ValueId ra = FindLocked(ia);
  ValueId rb = FindLocked(ib);
  if (ra == rb) return;
  parent_[rb] = ra;
  // Ensure both leaves are present so ClassMembers can enumerate them.
  if (!parent_.count(ia)) parent_[ia] = ra;
  if (!parent_.count(ib)) parent_[ib] = ra;
  if (!parent_.count(ra)) parent_[ra] = ra;
  ++version_;
}

bool SynonymDictionary::AreSynonyms(ValueId a, ValueId b) const {
  if (a == b) return true;
  std::lock_guard<std::mutex> lock(mu_);
  return FindLocked(a) == FindLocked(b);
}

bool SynonymDictionary::AreSynonyms(std::string_view a,
                                    std::string_view b) const {
  if (a == b) return true;
  ValueId ia = pool_->Find(a);
  ValueId ib = pool_->Find(b);
  if (ia == kInvalidValueId || ib == kInvalidValueId) return false;
  return AreSynonyms(ia, ib);
}

ValueId SynonymDictionary::ClassOf(ValueId v) const {
  std::lock_guard<std::mutex> lock(mu_);
  return FindLocked(v);
}

std::vector<ValueId> SynonymDictionary::ClassMembers(ValueId v) const {
  std::lock_guard<std::mutex> lock(mu_);
  ValueId root = FindLocked(v);
  std::vector<ValueId> out;
  for (const auto& [child, _] : parent_) {
    if (FindLocked(child) == root) out.push_back(child);
  }
  if (out.empty()) out.push_back(v);
  return out;
}

uint64_t SynonymDictionary::version() const {
  std::lock_guard<std::mutex> lock(mu_);
  return version_;
}

std::shared_ptr<const SynonymSnapshot> SynonymDictionary::View() const {
  std::lock_guard<std::mutex> lock(mu_);
  if (view_ == nullptr || view_->source_version_ != version_) {
    auto view = std::make_shared<SynonymSnapshot>();
    view->source_version_ = version_;
    view->class_of_.Reserve(parent_.size());
    for (const auto& [child, _] : parent_) {
      view->class_of_[static_cast<uint64_t>(child) + 1] = FindLocked(child);
    }
    view_ = std::move(view);
  }
  return view_;
}

}  // namespace ms
