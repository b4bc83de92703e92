// Streams an SWF trace as a SubmissionSource: each record is mapped to a
// SubmitSpec on the fly (O(1) memory per job), with interned credential
// strings (each numeric id formatted once), range checks, monotonic
// submission-time clamping, optional core clamping to the simulated
// cluster, and a seeded evolving overlay that marks a deterministic
// fraction of jobs dynamic — the paper's ESP treatment applied to real
// traces. See DESIGN.md §12.
#pragma once

#include <cstdint>
#include <istream>
#include <string>
#include <string_view>
#include <unordered_map>

#include "common/interner.hpp"
#include "workload/source.hpp"
#include "workload/swf/swf_parser.hpp"

namespace dbs::wl::swf {

struct SwfSourceConfig {
  MalformedPolicy policy = MalformedPolicy::Skip;
  /// Fraction of replayed jobs marked evolving, in [0, 1]. The draw is a
  /// pure function of (overlay_seed, SWF job number), so it is identical
  /// for any window size, replay order or trace prefix.
  double overlay_dynamic_fraction = 0.0;
  std::uint64_t overlay_seed = 2014;
  /// Evolving-overlay shape: the paper's ESP parameters.
  double first_ask_frac = 0.16;
  double retry_frac = 0.25;
  CoreCount ask_cores = 4;
  /// Clamp job sizes to this many cores (0 = no clamp). A trace replayed
  /// on a smaller simulated machine would otherwise deadlock on jobs
  /// wider than the whole cluster.
  CoreCount max_cores = 0;
};

class SwfSource final : public SubmissionSource {
 public:
  /// `in` must outlive the source.
  SwfSource(std::istream& in, SwfSourceConfig config);

  /// Header directives; consumes the input up to the first record, so
  /// callers can size the cluster from MaxProcs before streaming.
  const SwfHeader& header() { return parser_.read_header(); }

  bool next(SubmitSpec& out) override;

  /// Late-bound core clamp, for callers that size the cluster from the
  /// header (which is only known after construction). Must be called
  /// before the first next().
  void set_max_cores(CoreCount max_cores) { config_.max_cores = max_cores; }

  /// Returns `nodes`, or for 0 enough nodes for the header's MaxProcs (128
  /// cores without one), and clamps job sizes to that machine. Throws
  /// precondition_error naming `path`, the line and the value if MaxProcs
  /// does not fit a CoreCount. Must be called before the first next().
  std::size_t size_cluster(std::size_t nodes, CoreCount cores_per_node,
                           const std::string& path);

  /// Whether the overlay marks SWF job `job_number` evolving — exposed so
  /// tests can verify window/order independence of the draw.
  [[nodiscard]] static bool overlay_marks(std::uint64_t seed, double fraction,
                                          std::int64_t job_number);

  // --- replay statistics -------------------------------------------------
  [[nodiscard]] const SwfParser& parser() const { return parser_; }
  /// Jobs yielded to the driver.
  [[nodiscard]] std::uint64_t yielded() const { return yielded_; }
  /// Well-formed records dropped as unusable: no runtime, size or submit
  /// time; a submit, run or requested time a Duration cannot hold; a
  /// processor count a CoreCount cannot hold; or a field beyond int64.
  [[nodiscard]] std::uint64_t unusable() const { return unusable_; }
  /// Jobs whose size was clamped to max_cores.
  [[nodiscard]] std::uint64_t clamped_cores() const { return clamped_cores_; }
  /// Jobs whose submit time was clamped up to keep the stream monotonic.
  [[nodiscard]] std::uint64_t clamped_times() const { return clamped_times_; }
  /// Jobs marked evolving by the overlay.
  [[nodiscard]] std::uint64_t overlay_marked() const { return overlay_marked_; }
  /// Distinct users/groups/queues seen (interner sizes, minus the shared
  /// empty string).
  [[nodiscard]] std::size_t distinct_users() const {
    return users_.distinct();
  }
  [[nodiscard]] std::size_t distinct_groups() const {
    return groups_.distinct();
  }
  [[nodiscard]] std::size_t distinct_queues() const {
    return queues_.distinct();
  }

 private:
  /// SWF numeric id -> interned credential name ("u17"). Each id is
  /// formatted and interned once, on first sight, so memory grows with
  /// the number of distinct ids, not with the largest one.
  class IdNames {
   public:
    /// Names are `prefix` + id; every negative id (-1 = not available)
    /// maps to `missing`, which must outlive this object.
    IdNames(char prefix, std::string_view missing)
        : prefix_(prefix), missing_(missing) {}

    std::string_view operator()(std::int64_t id);
    [[nodiscard]] std::size_t distinct() const { return interner_.size() - 1; }

   private:
    char prefix_;
    std::string_view missing_;
    common::StringInterner interner_;
    std::unordered_map<std::int64_t, std::string_view> names_;
  };

  SwfParser parser_;
  SwfSourceConfig config_;
  std::int64_t last_submit_s_ = 0;
  std::uint64_t yielded_ = 0;
  std::uint64_t unusable_ = 0;
  std::uint64_t clamped_cores_ = 0;
  std::uint64_t clamped_times_ = 0;
  std::uint64_t overlay_marked_ = 0;
  std::uint64_t anonymous_ = 0;  ///< records with no job number
  // Jobs must carry a user (fair-share needs one); traces with an unknown
  // user all share a synthetic one.
  IdNames users_{'u', "u_unknown"};
  IdNames groups_{'g', ""};
  IdNames queues_{'q', ""};
};

}  // namespace dbs::wl::swf
