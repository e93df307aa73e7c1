#include "cluster/state.hpp"

#include <algorithm>

#include "util/assert.hpp"

namespace commsched {

ClusterState::ClusterState(const Tree& tree) : tree_(&tree) {
  node_owner_.assign(static_cast<std::size_t>(tree.node_count()), kInvalidJob);
  leaf_busy_.assign(static_cast<std::size_t>(tree.switch_count()), 0);
  leaf_comm_.assign(static_cast<std::size_t>(tree.switch_count()), 0);
  leaf_io_.assign(static_cast<std::size_t>(tree.switch_count()), 0);
  switch_free_.resize(static_cast<std::size_t>(tree.switch_count()));
  for (SwitchId s = 0; s < tree.switch_count(); ++s)
    switch_free_[static_cast<std::size_t>(s)] = tree.node_count_under(s);
  free_total_ = tree.node_count();
  leaf_load_.assign(static_cast<std::size_t>(tree.switch_count()), 0);
  switch_load_.assign(static_cast<std::size_t>(tree.switch_count()), 0);

  // Per-leaf free index: one contiguous segment per leaf, initially every
  // attached node (all free), kept sorted ascending.
  free_list_.reserve(static_cast<std::size_t>(tree.node_count()));
  leaf_off_.assign(static_cast<std::size_t>(tree.switch_count()), -1);
  for (const SwitchId leaf : tree.leaves()) {
    leaf_off_[static_cast<std::size_t>(leaf)] =
        static_cast<std::int32_t>(free_list_.size());
    const auto nodes = tree.nodes_of_leaf(leaf);
    free_list_.insert(free_list_.end(), nodes.begin(), nodes.end());
    std::sort(free_list_.end() - static_cast<std::ptrdiff_t>(nodes.size()),
              free_list_.end());
  }
  COMMSCHED_ASSERT_EQ_MSG(free_list_.size(),
                          static_cast<std::size_t>(tree.node_count()),
                          "every node must hang off exactly one leaf");

  stamp_.assign(static_cast<std::size_t>(tree.node_count()), 0);
  batch_.resize(static_cast<std::size_t>(tree.switch_count()));
  batch_leaves_.reserve(static_cast<std::size_t>(tree.leaf_count()));
  batch_nodes_.resize(static_cast<std::size_t>(tree.node_count()));
}

// Opens a new epoch for the node stamps and the per-leaf batch counters.
// hot-path: no-alloc
void ClusterState::begin_batch() {
  if (++epoch_ == 0) {
    std::fill(stamp_.begin(), stamp_.end(), 0);
    for (LeafBatch& b : batch_) b.stamp = 0;
    epoch_ = 1;
  }
  batch_leaves_.clear();
}

// Counts node `n` (attached to `leaf`) into the current batch.
// hot-path: no-alloc
void ClusterState::count_into_batch(SwitchId leaf, NodeId n) {
  LeafBatch& b = batch_[static_cast<std::size_t>(leaf)];
  if (b.stamp != epoch_) {
    b = LeafBatch{.stamp = epoch_, .count = 0, .min = n, .begin = 0};
    // contract-trusted: no-alloc: capacity reserved to leaf_count when the
    // state is built
    batch_leaves_.push_back(leaf);
  }
  ++b.count;
  b.min = std::min(b.min, n);
}

// Moves the leaf's counters and its ancestors' aggregates by `delta` nodes
// of `rec`'s kind: one tree walk per leaf, whatever the node count.
// hot-path: no-alloc
void ClusterState::commit_leaf_counts(SwitchId leaf, int delta,
                                      const JobRec& rec) {
  const auto l = static_cast<std::size_t>(leaf);
  leaf_busy_[l] += delta;
  if (rec.comm_intensive) leaf_comm_[l] += delta;
  if (rec.io_intensive) leaf_io_[l] += delta;
  const LoadUnits load_delta = rec.load * delta;
  leaf_load_[l] += load_delta;
  for (SwitchId s = leaf; s != kInvalidSwitch; s = tree_->parent(s)) {
    switch_free_[static_cast<std::size_t>(s)] -= delta;
    switch_load_[static_cast<std::size_t>(s)] += load_delta;
  }
  free_total_ -= delta;
  load_total_ += load_delta;
}

// Drops the nodes `job` now owns from the leaf's sorted free prefix in one
// stable compaction, starting at the job's lowest node on the leaf. Runs
// before the counters move, so leaf_free() is still the old prefix length.
// Matching on the owner, not on "not free", keeps a busy node of another
// job that the index lists from standing in for a node of this job that
// the index lost: the count check then trips.
// hot-path: no-alloc
void ClusterState::remove_from_free_index(SwitchId leaf, JobId job) {
  const LeafBatch& b = batch_[static_cast<std::size_t>(leaf)];
  NodeId* const seg =
      free_list_.data() + leaf_off_[static_cast<std::size_t>(leaf)];
  NodeId* const end = seg + leaf_free(leaf);
  NodeId* out = std::lower_bound(seg, end, b.min);
  for (const NodeId* in = out; in != end; ++in)
    if (node_owner_[static_cast<std::size_t>(*in)] != job) *out++ = *in;
  COMMSCHED_ASSERT_MSG(end - out == b.count,
                       "free index out of sync: allocated node not free");
}

// Merges the leaf's sorted bucket of freed nodes into its sorted free
// prefix from the back, so every entry moves at most once. Runs before the
// counters move. The prefix is strictly ascending, so a freed node the
// index already lists meets itself as an equal key.
// hot-path: no-alloc
void ClusterState::merge_into_free_index(SwitchId leaf) {
  const LeafBatch& b = batch_[static_cast<std::size_t>(leaf)];
  NodeId* const seg =
      free_list_.data() + leaf_off_[static_cast<std::size_t>(leaf)];
  const NodeId* const freed = batch_nodes_.data() + b.begin;
  std::ptrdiff_t i = leaf_free(leaf) - 1;
  std::ptrdiff_t j = b.count - 1;
  std::ptrdiff_t w = i + j + 1;
  while (j >= 0) {
    if (i >= 0 && seg[i] > freed[j]) {
      seg[w--] = seg[i--];
    } else {
      COMMSCHED_ASSERT_MSG(i < 0 || seg[i] != freed[j],
                           "free index out of sync: released node already "
                           "free");
      seg[w--] = freed[j--];
    }
  }
}

// hot-path: no-alloc
std::int32_t ClusterState::find_slot(JobId job) const {
  if (job >= 0 && job < kDenseJobIds) {
    const auto idx = static_cast<std::size_t>(job);
    if (idx >= dense_slot_.size()) return -1;
    return dense_slot_[idx];
  }
  const auto it = sparse_slot_.find(job);
  return it == sparse_slot_.end() ? -1 : it->second;
}

// hot-path: no-alloc
std::int32_t ClusterState::claim_slot(JobId job) {
  std::int32_t slot;
  if (!free_slots_.empty()) {
    slot = free_slots_.back();
    free_slots_.pop_back();
  } else {
    slot = static_cast<std::int32_t>(job_pool_.size());
    // contract-trusted: no-alloc: slot pool grows to the peak live-job
    // count, then slots recycle through free_slots_
    job_pool_.emplace_back();
  }
  if (job >= 0 && job < kDenseJobIds) {
    const auto idx = static_cast<std::size_t>(job);
    // contract-trusted: no-alloc: dense id->slot table grows once up to
    // the largest dense job id, then stays
    if (idx >= dense_slot_.size()) dense_slot_.resize(idx + 1, -1);
    dense_slot_[idx] = slot;
  } else {
    // contract-trusted: no-alloc: out-of-range ids are rare (SWF traces
    // stay under kDenseJobIds); bounded by live sparse jobs
    sparse_slot_.emplace(job, slot);
  }
  return slot;
}

// hot-path: no-alloc
void ClusterState::drop_slot(JobId job, std::int32_t slot) {
  if (job >= 0 && job < kDenseJobIds)
    dense_slot_[static_cast<std::size_t>(job)] = -1;
  else
    sparse_slot_.erase(job);
  JobRec& rec = job_pool_[static_cast<std::size_t>(slot)];
  rec.live = false;
  rec.id = kInvalidJob;
  rec.nodes.clear();  // capacity survives for the next occupant
  // contract-trusted: no-alloc: free list capacity is bounded by the
  // peak live-job count the pool already reached
  free_slots_.push_back(slot);
}

// hot-path: no-alloc
void ClusterState::allocate(JobId job, bool comm_intensive,
                            std::span<const NodeId> nodes,
                            bool io_intensive, LoadUnits comm_load) {
  COMMSCHED_ASSERT_MSG(job != kInvalidJob, "invalid job id");
  COMMSCHED_ASSERT_MSG(find_slot(job) < 0, "job id already allocated");
  COMMSCHED_ASSERT_MSG(!nodes.empty(), "allocation must contain nodes");
  COMMSCHED_ASSERT_GE_MSG(comm_load, 0, "negative communication load");
  // Check before mutating so a failed precondition leaves state untouched.
  // Epoch stamping replaces a per-call hash set for the duplicate check;
  // the same pass counts the nodes per leaf.
  begin_batch();
  for (const NodeId n : nodes) {
    COMMSCHED_ASSERT_MSG(n >= 0 && n < tree_->node_count(),
                         "node id out of range");
    COMMSCHED_ASSERT_MSG(stamp_[static_cast<std::size_t>(n)] != epoch_,
                         "duplicate node in allocation");
    stamp_[static_cast<std::size_t>(n)] = epoch_;
    COMMSCHED_ASSERT_MSG(is_free(n), "node already allocated");
    count_into_batch(tree_->leaf_of(n), n);
  }
  const std::int32_t slot = claim_slot(job);
  JobRec& rec = job_pool_[static_cast<std::size_t>(slot)];
  rec.id = job;
  rec.live = true;
  rec.comm_intensive = comm_intensive;
  rec.io_intensive = io_intensive;
  rec.load = comm_load;
  rec.nodes.assign(nodes.begin(), nodes.end());
  for (const NodeId n : nodes) node_owner_[static_cast<std::size_t>(n)] = job;
  for (const SwitchId leaf : batch_leaves_) {
    remove_from_free_index(leaf, job);
    commit_leaf_counts(leaf, batch_[static_cast<std::size_t>(leaf)].count,
                       rec);
  }
  ++live_jobs_;
}

// hot-path: no-alloc
void ClusterState::release_into(JobId job, std::vector<NodeId>& out) {
  const std::int32_t slot = find_slot(job);
  COMMSCHED_ASSERT_MSG(slot >= 0, "releasing unknown job");
  JobRec& rec = job_pool_[static_cast<std::size_t>(slot)];
  // contract-trusted: no-alloc: caller scratch reuses reserved capacity
  out.assign(rec.nodes.begin(), rec.nodes.end());

  // Bucket the freed nodes by leaf (counting sort over the touched leaves)
  // and sort each bucket for the merge.
  begin_batch();
  for (const NodeId n : out) count_into_batch(tree_->leaf_of(n), n);
  std::int32_t begin = 0;
  for (const SwitchId leaf : batch_leaves_) {
    LeafBatch& b = batch_[static_cast<std::size_t>(leaf)];
    b.begin = begin;
    begin += b.count;
  }
  for (const NodeId n : out) {
    node_owner_[static_cast<std::size_t>(n)] = kInvalidJob;
    LeafBatch& b = batch_[static_cast<std::size_t>(tree_->leaf_of(n))];
    batch_nodes_[static_cast<std::size_t>(b.begin++)] = n;
  }
  for (const SwitchId leaf : batch_leaves_) {
    LeafBatch& b = batch_[static_cast<std::size_t>(leaf)];
    b.begin -= b.count;
    NodeId* const bucket = batch_nodes_.data() + b.begin;
    std::sort(bucket, bucket + b.count);
    merge_into_free_index(leaf);
    commit_leaf_counts(leaf, -b.count, rec);
  }
  drop_slot(job, slot);
  --live_jobs_;
}

std::vector<NodeId> ClusterState::release(JobId job) {
  std::vector<NodeId> freed;
  release_into(job, freed);
  return freed;
}

// hot-path: no-alloc
bool ClusterState::is_free(NodeId n) const { return owner(n) == kInvalidJob; }

// hot-path: no-alloc
JobId ClusterState::owner(NodeId n) const {
  COMMSCHED_ASSERT_MSG(n >= 0 && n < tree_->node_count(), "node id out of range");
  return node_owner_[static_cast<std::size_t>(n)];
}

bool ClusterState::has_job(JobId job) const { return find_slot(job) >= 0; }

// hot-path: no-alloc
std::span<const NodeId> ClusterState::job_nodes(JobId job) const {
  const std::int32_t slot = find_slot(job);
  COMMSCHED_ASSERT_MSG(slot >= 0, "unknown job");
  return job_pool_[static_cast<std::size_t>(slot)].nodes;
}

bool ClusterState::job_is_comm(JobId job) const {
  const std::int32_t slot = find_slot(job);
  COMMSCHED_ASSERT_MSG(slot >= 0, "unknown job");
  return job_pool_[static_cast<std::size_t>(slot)].comm_intensive;
}

// hot-path: no-alloc
LoadUnits ClusterState::job_load(JobId job) const {
  const std::int32_t slot = find_slot(job);
  COMMSCHED_ASSERT_MSG(slot >= 0, "unknown job");
  return job_pool_[static_cast<std::size_t>(slot)].load;
}

// hot-path: no-alloc
int ClusterState::leaf_nodes(SwitchId leaf) const {
  COMMSCHED_ASSERT_MSG(tree_->is_leaf(leaf), "not a leaf switch");
  return static_cast<int>(tree_->nodes_of_leaf(leaf).size());
}

// hot-path: no-alloc
int ClusterState::leaf_busy(SwitchId leaf) const {
  COMMSCHED_ASSERT_MSG(tree_->is_leaf(leaf), "not a leaf switch");
  return leaf_busy_[static_cast<std::size_t>(leaf)];
}

// hot-path: no-alloc
int ClusterState::leaf_comm(SwitchId leaf) const {
  COMMSCHED_ASSERT_MSG(tree_->is_leaf(leaf), "not a leaf switch");
  return leaf_comm_[static_cast<std::size_t>(leaf)];
}

// hot-path: no-alloc
int ClusterState::leaf_io(SwitchId leaf) const {
  COMMSCHED_ASSERT_MSG(tree_->is_leaf(leaf), "not a leaf switch");
  return leaf_io_[static_cast<std::size_t>(leaf)];
}

// hot-path: no-alloc
int ClusterState::free_under(SwitchId s) const {
  COMMSCHED_ASSERT(s >= 0 && s < tree_->switch_count());
  return switch_free_[static_cast<std::size_t>(s)];
}

// hot-path: no-alloc
LoadUnits ClusterState::leaf_load(SwitchId leaf) const {
  COMMSCHED_ASSERT_MSG(tree_->is_leaf(leaf), "not a leaf switch");
  return leaf_load_[static_cast<std::size_t>(leaf)];
}

// hot-path: no-alloc
LoadUnits ClusterState::load_under(SwitchId s) const {
  COMMSCHED_ASSERT(s >= 0 && s < tree_->switch_count());
  return switch_load_[static_cast<std::size_t>(s)];
}

std::vector<NodeId> ClusterState::free_nodes_of_leaf(SwitchId leaf) const {
  const std::span<const NodeId> seg = free_leaf_span(leaf);
  return {seg.begin(), seg.end()};
}

// hot-path: no-alloc
std::span<const NodeId> ClusterState::free_leaf_span(SwitchId leaf) const {
  COMMSCHED_ASSERT_MSG(tree_->is_leaf(leaf), "not a leaf switch");
  const std::int32_t off = leaf_off_[static_cast<std::size_t>(leaf)];
  return {free_list_.data() + off,
          static_cast<std::size_t>(leaf_free(leaf))};
}

void ClusterState::validate() const {
  // Recompute every counter from the ground-truth per-node owner table.
  std::vector<int> busy(static_cast<std::size_t>(tree_->switch_count()), 0);
  std::vector<int> comm(static_cast<std::size_t>(tree_->switch_count()), 0);
  std::vector<int> io(static_cast<std::size_t>(tree_->switch_count()), 0);
  std::vector<LoadUnits> load(static_cast<std::size_t>(tree_->switch_count()),
                              0);
  int total_busy = 0;
  LoadUnits total_load = 0;
  for (NodeId n = 0; n < tree_->node_count(); ++n) {
    const JobId j = node_owner_[static_cast<std::size_t>(n)];
    if (j == kInvalidJob) continue;
    const std::int32_t slot = find_slot(j);
    COMMSCHED_ASSERT_MSG(slot >= 0, "node owned by unknown job");
    const JobRec& rec = job_pool_[static_cast<std::size_t>(slot)];
    COMMSCHED_ASSERT_MSG(rec.live && rec.id == j,
                         "job slot table out of sync");
    COMMSCHED_ASSERT_MSG(
        std::find(rec.nodes.begin(), rec.nodes.end(), n) != rec.nodes.end(),
        "node/job ownership tables disagree");
    const SwitchId leaf = tree_->leaf_of(n);
    ++busy[static_cast<std::size_t>(leaf)];
    if (rec.comm_intensive) ++comm[static_cast<std::size_t>(leaf)];
    if (rec.io_intensive) ++io[static_cast<std::size_t>(leaf)];
    COMMSCHED_ASSERT_GE_MSG(rec.load, 0, "job carries a negative load");
    load[static_cast<std::size_t>(leaf)] += rec.load;
    total_load += rec.load;
    ++total_busy;
  }
  COMMSCHED_ASSERT_EQ(free_total_, tree_->node_count() - total_busy);
  COMMSCHED_ASSERT_EQ(load_total_, total_load);
  for (const SwitchId leaf : tree_->leaves()) {
    COMMSCHED_ASSERT_EQ(leaf_busy_[static_cast<std::size_t>(leaf)],
                        busy[static_cast<std::size_t>(leaf)]);
    COMMSCHED_ASSERT_EQ(leaf_comm_[static_cast<std::size_t>(leaf)],
                        comm[static_cast<std::size_t>(leaf)]);
    COMMSCHED_ASSERT_EQ(leaf_io_[static_cast<std::size_t>(leaf)],
                        io[static_cast<std::size_t>(leaf)]);
    COMMSCHED_ASSERT_EQ(leaf_load_[static_cast<std::size_t>(leaf)],
                        load[static_cast<std::size_t>(leaf)]);
  }
  for (SwitchId s = 0; s < tree_->switch_count(); ++s) {
    int free_sub = 0;
    LoadUnits load_sub = 0;
    for (const SwitchId leaf : tree_->leaves_under(s)) {
      free_sub += static_cast<int>(tree_->nodes_of_leaf(leaf).size()) -
                  busy[static_cast<std::size_t>(leaf)];
      load_sub += load[static_cast<std::size_t>(leaf)];
    }
    COMMSCHED_ASSERT_EQ(switch_free_[static_cast<std::size_t>(s)], free_sub);
    COMMSCHED_ASSERT_EQ(switch_load_[static_cast<std::size_t>(s)], load_sub);
  }

  // Per-leaf free index: the packed prefix must list exactly the leaf's
  // free nodes, sorted ascending, at the leaf's recorded offset.
  for (const SwitchId leaf : tree_->leaves()) {
    const std::int32_t off = leaf_off_[static_cast<std::size_t>(leaf)];
    COMMSCHED_ASSERT_MSG(off >= 0, "leaf missing from the free index");
    const int expect_free =
        static_cast<int>(tree_->nodes_of_leaf(leaf).size()) -
        busy[static_cast<std::size_t>(leaf)];
    const std::span<const NodeId> seg{
        free_list_.data() + off, static_cast<std::size_t>(expect_free)};
    NodeId prev = -1;
    for (const NodeId n : seg) {
      COMMSCHED_ASSERT_MSG(n > prev,
                           "free index not sorted ascending / duplicated");
      COMMSCHED_ASSERT_MSG(tree_->leaf_of(n) == leaf,
                           "free index lists a node of another leaf");
      COMMSCHED_ASSERT_MSG(node_owner_[static_cast<std::size_t>(n)] ==
                               kInvalidJob,
                           "free index lists an allocated node");
      prev = n;
    }
  }

  std::size_t nodes_in_jobs = 0;
  std::size_t live = 0;
  for (const JobRec& rec : job_pool_) {
    if (!rec.live) continue;
    ++live;
    nodes_in_jobs += rec.nodes.size();
    COMMSCHED_ASSERT_EQ_MSG(find_slot(rec.id),
                            static_cast<std::int32_t>(&rec - job_pool_.data()),
                            "job id table does not point at the live slot");
  }
  COMMSCHED_ASSERT_EQ(live, live_jobs_);
  COMMSCHED_ASSERT_EQ(nodes_in_jobs, static_cast<std::size_t>(total_busy));
}

}  // namespace commsched
