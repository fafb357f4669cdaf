// Copyright 2026 The pasjoin Authors.
//
// The graph of agreements (Section 4): a directed weighted multigraph over
// grid cells. Every pair of adjacent cells (side- or corner-adjacent) holds
// an *agreement*: the data set (R or S) whose points are replicated across
// their common border. The graph decomposes into one fully-connected
// 4-vertex subgraph per quartet (12 directed edges each); a side-adjacent
// pair shared by two quartets has one edge pair per quartet - the agreement
// *type* is identical in both (it is a property of the cell pair) while the
// *marked/locked* state is per subgraph (it concerns only that quartet's
// duplicate-prone area).
//
// Algorithm 1 (Section 5.2) post-processes every subgraph: in each triangle
// carrying both agreement types it marks one edge (excluding the tail cell's
// duplicate-prone points from that replication direction) and locks the two
// edges whose replication the marking now relies on.
#ifndef PASJOIN_AGREEMENTS_AGREEMENT_GRAPH_H_
#define PASJOIN_AGREEMENTS_AGREEMENT_GRAPH_H_

#include <cstdint>
#include <string>
#include <vector>

#include "common/flat_index.h"
#include "common/geometry.h"
#include "common/tuple.h"
#include "grid/grid.h"
#include "grid/stats.h"

namespace pasjoin::agreements {

/// The data set replicated under an agreement (tau in the paper).
enum class AgreementType : uint8_t {
  kReplicateR = 0,
  kReplicateS = 1,
};

/// The agreement type that replicates relation `side`.
inline AgreementType AgreementFor(Side side) {
  return side == Side::kR ? AgreementType::kReplicateR
                          : AgreementType::kReplicateS;
}

/// The relation an agreement type replicates.
inline Side ReplicatedSide(AgreementType t) {
  return t == AgreementType::kReplicateR ? Side::kR : Side::kS;
}

/// Policy for instantiating agreement types (Section 4.3). The two uniform
/// policies make PBSM an instance of the graph of agreements (Section 4.4).
enum class Policy : uint8_t {
  kLPiB,      ///< least points in boundaries
  kDiff,      ///< fewest points in the cell with the greatest |#R - #S|
  kUniformR,  ///< always replicate R (PBSM UNI(R))
  kUniformS,  ///< always replicate S (PBSM UNI(S))
};

/// "LPiB", "DIFF", "UNI(R)", "UNI(S)".
const char* PolicyName(Policy p);

/// Order in which Algorithm 1 examines a subgraph's edges for marking. The
/// duplicate-free guarantee holds for *any* order (the marking conditions
/// are local); the order only affects how much replication marking saves.
enum class MarkingOrder : uint8_t {
  /// The paper's order (Section 5.2): edges between corner-touching
  /// (diagonal) cells first - marking them needs no supplementary
  /// replication (Corollary 4.9) - then side edges; descending weight
  /// within each group.
  kPaper,
  /// Purely by descending weight, ignoring the diagonal/side distinction.
  kWeightDescending,
  /// Fixed (tail, head) index order, ignoring weights - the no-information
  /// baseline.
  kIndexOrder,
};

/// "paper", "weight-desc" or "index".
const char* MarkingOrderName(MarkingOrder order);

/// State of one directed edge e_ij within a quartet subgraph.
struct EdgeState {
  /// Estimated processing cost induced by replication i -> j: candidates of
  /// the replicated set in i times points of the other set in j (Ex. 4.4).
  float weight = 0.0f;
  /// Marked: cell i's duplicate-prone-area points are NOT replicated to j.
  bool marked = false;
  /// Locked: this edge may no longer be marked (its replication is needed
  /// for correctness of an earlier marking).
  bool locked = false;
};

/// The fully connected 4-vertex subgraph of one quartet. Cell indices are
/// grid::QuartetCell positions (kSW..kNE); entries with i == j are unused.
/// The quartet's id, reference point and cells come from the grid
/// (Grid::QuartetRefPoint, Grid::QuartetCellId): one default subgraph
/// stands for every quartet the sample did not touch.
struct QuartetSubgraph {
  /// Pair agreement types (symmetric: type[i][j] == type[j][i]).
  AgreementType type[4][4] = {};
  /// Directed edge states; edge[i][j] is e_ij.
  EdgeState edge[4][4] = {};
};

/// The instantiated graph of agreements for a grid.
///
/// Sparse: only the pairs and quartets that touch a sampled cell are
/// decided and stored. Two cells without sampled points always get the same
/// type, the policy's decision for two empty cells (LPiB and DIFF see 0 vs 0
/// and return the tie-break; the uniform policies their constant type). So
/// a quartet whose four cells are all unsampled has six equal pair types,
/// zero weights and nothing to mark: every such quartet resolves to one
/// shared, read-only default subgraph. Memory and planning time scale with
/// the sample, not with the grid.
///
/// Side pairs are stored once, by their lower-left "anchor" cell, and copied
/// into each owning subgraph, which guarantees the two subgraph copies agree.
class AgreementGraph {
 public:
  /// The side-pair types of one anchor cell (x, y): toward (x+1, y) and
  /// toward (x, y+1).
  struct AnchorPairs {
    grid::CellId cell;
    AgreementType right;
    AgreementType up;
  };

  /// Instantiates agreement types and edge weights from sample statistics
  /// under `policy`, then returns the (not yet duplicate-free) graph.
  ///
  /// `tie_break` resolves pairs whose sample statistics cannot discriminate
  /// (e.g. empty boundary samples under a small sampling rate): LPiB falls
  /// back to the DIFF criterion, then both fall back to `tie_break` -
  /// callers pass the globally smaller relation, so undecided regions
  /// default to the cheaper universal choice.
  static AgreementGraph Build(
      const grid::Grid& grid, const grid::GridStats& stats, Policy policy,
      AgreementType tie_break = AgreementType::kReplicateR);

  // --- Chunked build steps -------------------------------------------------
  //
  // Build() and RunDuplicateFreeMarking() are thin sequential drivers over
  // the range primitives below; core::PlanAgreementGraph drives the same
  // primitives from a thread pool. Each range call writes only its own
  // slots, and marking reads and writes only the marked quartet's own
  // subgraph, so disjoint ranges may run concurrently and any execution
  // order yields the same bytes.

  /// Lists the pair anchors and quartets that touch a sampled cell of
  /// `stats` and allocates their undecided slots, ready for DecidePairRange
  /// and MaterializeSubgraphRange.
  static AgreementGraph PrepareBuild(
      const grid::Grid& grid, const grid::GridStats& stats, Policy policy,
      AgreementType tie_break = AgreementType::kReplicateR);

  /// Number of pair anchors: cells whose right and upper side pairs are
  /// decided (every pair that touches a sampled cell has one).
  int NumPairAnchors() const { return static_cast<int>(anchors_.size()); }
  /// Number of side pairs the anchors decide.
  int64_t NumDecidedPairs() const;
  /// Number of materialized (stored) quartet subgraphs.
  int NumMaterialized() const { return static_cast<int>(quartets_.size()); }

  /// Decides the side pairs of anchors [begin, end) - Build step 1.
  void DecidePairRange(const grid::GridStats& stats, int begin, int end);

  /// Materializes subgraphs [begin, end) - Build step 2 (copies side-pair
  /// types, decides diagonals, computes edge weights). Requires all pairs
  /// decided.
  void MaterializeSubgraphRange(const grid::GridStats& stats, int begin,
                                int end);

  /// Runs Algorithm 1 on materialized subgraphs [begin, end).
  void MarkRange(int begin, int end, MarkingOrder order);

  /// Declares marking complete (freezes Set*PairType overrides). The
  /// sequential RunDuplicateFreeMarking does this implicitly.
  void FinishMarking() { marking_done_ = true; }

  /// Runs Algorithm 1 on every subgraph, producing a duplicate-free
  /// assignment. Idempotent.
  void RunDuplicateFreeMarking(MarkingOrder order = MarkingOrder::kPaper);

  /// Runs Algorithm 1 on a single subgraph (exposed for tests/ablations).
  /// It reads and writes only `sub`.
  static void MarkSubgraph(QuartetSubgraph* sub,
                           MarkingOrder order = MarkingOrder::kPaper);

  /// Agreement type between `cell` and its side neighbor in direction
  /// (dx, dy) (exactly one nonzero). The neighbor must exist.
  AgreementType PairTypeToward(grid::CellId cell, int dx, int dy) const;

  /// The subgraph of quartet `q`: the default subgraph unless the sample
  /// touched one of its cells.
  const QuartetSubgraph& Subgraph(grid::QuartetId q) const {
    const int32_t slot = slot_of_quartet_.Find(q);
    return slot == FlatIndex::kAbsent ? default_
                                      : subgraphs_[static_cast<size_t>(slot)];
  }
  /// The stored state by slot, for compiling it into another form
  /// (core::ReplicationAssigner): materialized quartet `slot` and its
  /// subgraph, pair anchor `slot`, and what every other quartet and pair
  /// resolves to.
  grid::QuartetId QuartetAt(int slot) const {
    return quartets_[static_cast<size_t>(slot)];
  }
  const QuartetSubgraph& SubgraphAt(int slot) const {
    return subgraphs_[static_cast<size_t>(slot)];
  }
  const AnchorPairs& AnchorAt(int slot) const {
    return anchors_[static_cast<size_t>(slot)];
  }
  const QuartetSubgraph& default_subgraph() const { return default_; }
  AgreementType default_type() const { return default_type_; }

  /// Test hook: the subgraph of `q`, materialized on first use.
  QuartetSubgraph* MutableSubgraph(grid::QuartetId q) {
    return &subgraphs_[static_cast<size_t>(Materialize(q))];
  }

  const grid::Grid& grid() const { return *grid_; }
  Policy policy() const { return policy_; }

  /// Diagnostics: total marked / locked directed edges across all subgraphs.
  size_t CountMarked() const { return CountEdges(&EdgeState::marked); }
  size_t CountLocked() const { return CountEdges(&EdgeState::locked); }

  /// Overrides the agreement type of the horizontal pair between (cx, cy)
  /// and (cx+1, cy), keeping every subgraph copy consistent. Must be called
  /// before RunDuplicateFreeMarking. Exposed so tests can explore the full
  /// space of graph instances.
  void SetHorizontalPairType(int cx, int cy, AgreementType t);

  /// Overrides the vertical pair between (cx, cy) and (cx, cy+1).
  void SetVerticalPairType(int cx, int cy, AgreementType t);

  /// Overrides a diagonal pair of quartet `q`: `which_diagonal` 0 is SW-NE,
  /// 1 is SE-NW.
  void SetDiagonalPairType(grid::QuartetId q, int which_diagonal,
                           AgreementType t);

  /// Test helper: flips every pair type with probability 1/2 and assigns
  /// random edge weights (to vary Algorithm 1's processing order), using the
  /// given seed. Materializes every quartet. Must be called before
  /// RunDuplicateFreeMarking.
  void RandomizeForTesting(uint64_t seed);

  /// The policy decision for the pair (a, b) where b is a's neighbor in
  /// direction `dir_ab` (a grid::DirIndex). Orientation-symmetric:
  /// DecidePairType(a, b, dir) == DecidePairType(b, a, -dir) - pinned by a
  /// property test, since a parallel evaluation order must not flip pairs.
  AgreementType DecidePairType(const grid::GridStats& stats, grid::CellId a,
                               grid::CellId b, int dir_ab) const;

 private:
  AgreementGraph(const grid::Grid* grid, Policy policy, AgreementType tie_break);

  size_t CountEdges(bool EdgeState::*flag) const;
  /// Sets pair (a, b) of the quartet at corner (qx, qy), if it is one.
  void SetQuartetPairType(int qx, int qy, int a, int b, AgreementType t);
  /// DecidePairType over the two cells' counts.
  AgreementType DecidePairType(const grid::CellCounts& ca,
                               const grid::CellCounts& cb, grid::CellId a,
                               grid::CellId b, int dir_ab) const;

  /// The slot of quartet `q`, materializing it as the default subgraph
  /// carrying its stored side-pair types when it has none.
  int32_t Materialize(grid::QuartetId q);
  /// The pair slot of anchor `cell`, adding it with default types when it
  /// has none.
  AnchorPairs* MutableAnchor(grid::CellId cell);

  const grid::Grid* grid_;
  Policy policy_;
  AgreementType tie_break_;
  /// The policy's decision for two cells without sampled points.
  AgreementType default_type_;
  /// Pair anchors and their types, by slot.
  std::vector<AnchorPairs> anchors_;
  FlatIndex slot_of_anchor_;
  /// Materialized quartets by slot, and their subgraphs.
  std::vector<grid::QuartetId> quartets_;
  std::vector<QuartetSubgraph> subgraphs_;
  FlatIndex slot_of_quartet_;
  /// Every other quartet: all pairs of default_type_, zero weights.
  QuartetSubgraph default_;
  bool marking_done_ = false;
};

}  // namespace pasjoin::agreements

#endif  // PASJOIN_AGREEMENTS_AGREEMENT_GRAPH_H_
