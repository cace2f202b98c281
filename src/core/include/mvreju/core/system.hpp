#pragma once

// MultiVersionSystem: the paper's architecture (Fig. 1) as a reusable
// component. N diverse ML modules process each input; a module's behaviour
// depends on its health state (pristine inference when healthy, the
// fault-injected variant when compromised, silence when non-functional or
// under rejuvenation); the trusted voter merges proposals under rules
// R.1-R.3; reactive and time-triggered proactive rejuvenation keep the
// module pool healthy.
//
// Fleet-scale shape: the *behaviours* (VersionPool) are immutable and shared
// by every stream — module functions capture const model pointers, so a
// thousand concurrent streams share one set of weights — while the
// *per-stream* state (health process, vote bookkeeping, frame counter) lives
// in each MultiVersionSystem instance. The split-phase API
// (begin_frame / complete_frame) lets a serving layer separate "which
// versions run this frame" from "vote over what came back", with the actual
// inference routed through a cross-stream batcher in between; process() is
// the inline composition of the two and is bit-identical to the split path.

#include <cstdint>
#include <functional>
#include <memory>

#include "mvreju/core/health.hpp"
#include "mvreju/core/voter.hpp"
#include "mvreju/obs/flight_recorder.hpp"

namespace mvreju::core {

/// One diverse version: its healthy behaviour and its behaviour after being
/// compromised (e.g. the same network with injected weight faults).
template <typename Input, typename Output>
struct VersionSpec {
    std::function<Output(const Input&)> healthy;
    std::function<Output(const Input&)> compromised;
};

/// The immutable, shareable set of version behaviours. One pool instance
/// backs any number of streams (shared_ptr<const VersionPool>); no
/// per-stream clones of the underlying models are ever made.
template <typename Input, typename Output>
class VersionPool {
public:
    explicit VersionPool(std::vector<VersionSpec<Input, Output>> versions)
        : versions_(std::move(versions)) {
        for (const auto& v : versions_)
            if (!v.healthy || !v.compromised)
                throw std::invalid_argument("VersionPool: missing version behaviour");
    }

    [[nodiscard]] std::size_t size() const noexcept { return versions_.size(); }

    /// The behaviour of version `m` in health state `s`; s must be
    /// functional.
    [[nodiscard]] const std::function<Output(const Input&)>& behaviour(
        std::size_t m, ModuleState s) const {
        const VersionSpec<Input, Output>& v = versions_.at(m);
        return s == ModuleState::healthy ? v.healthy : v.compromised;
    }

private:
    std::vector<VersionSpec<Input, Output>> versions_;
};

/// Outcome of one processed frame, including which modules contributed.
template <typename Output>
struct FrameResult {
    VoteResult<Output> vote;
    int functional_modules = 0;
};

/// Everything decided at the *start* of a frame: the health snapshot that
/// determines which versions run and in which behaviour. A serving layer
/// fans the functional modules out to a batcher and calls complete_frame()
/// with the proposals once they return.
struct FramePlan {
    std::uint64_t frame_id = 0;
    std::uint64_t t_ns = 0;  ///< simulated-clock stamp for deterministic events
    std::vector<ModuleState> states;  ///< per-version health at frame time
    /// Per-version health at the previous plan (all healthy before the
    /// first), so a driver can act on transitions such as a fresh
    /// compromise or a completed rejuvenation.
    std::vector<ModuleState> previous_states;
    int functional_modules = 0;
};

/// The multi-version ML system with rejuvenation. One instance = one stream.
template <typename Input, typename Output, typename Agree = std::equal_to<Output>>
class MultiVersionSystem {
public:
    using Pool = VersionPool<Input, Output>;

    MultiVersionSystem(std::shared_ptr<const Pool> pool, Voter<Output, Agree> voter,
                       HealthEngine health)
        : pool_(std::move(pool)),
          voter_(std::move(voter)),
          health_(std::move(health)) {
        if (!pool_) throw std::invalid_argument("MultiVersionSystem: null pool");
        if (pool_->size() != static_cast<std::size_t>(health_.module_count()))
            throw std::invalid_argument(
                "MultiVersionSystem: version count does not match health engine");
    }

    MultiVersionSystem(std::vector<VersionSpec<Input, Output>> versions,
                       Voter<Output, Agree> voter, HealthEngine health)
        : MultiVersionSystem(std::make_shared<const Pool>(std::move(versions)),
                             std::move(voter), std::move(health)) {}

    /// The system builds its own voter and health process from their
    /// configuration.
    MultiVersionSystem(std::vector<VersionSpec<Input, Output>> versions,
                       VotingScheme scheme, const HealthEngineConfig& health)
        : MultiVersionSystem(std::move(versions), Voter<Output, Agree>(scheme),
                             HealthEngine(health)) {}

    /// Phase 1: advance the health process to `time`, snapshot per-version
    /// states (emitting module_state transition events) and decide which
    /// versions participate. `frame_id` names the frame in the plan and in
    /// its module_state and vote events: the driver's own frame number.
    [[nodiscard]] FramePlan begin_frame(double time, std::uint64_t frame_id) {
        health_.advance_to(time);
        FramePlan plan;
        // Flight-recorder timestamps use the simulated clock (ns), so dumps
        // from seeded runs are byte-deterministic.
        plan.t_ns = static_cast<std::uint64_t>(time * 1e9);
        plan.frame_id = frame_id;
        if (previous_states_.size() != pool_->size())
            previous_states_.assign(pool_->size(), ModuleState::healthy);
        plan.previous_states = previous_states_;
        plan.states.reserve(pool_->size());
        for (std::size_t m = 0; m < pool_->size(); ++m) {
            const ModuleState s = health_.state(static_cast<int>(m));
            if (s != previous_states_[m]) {
                MVREJU_OBS_EVENT_AT(plan.t_ns, obs::EventKind::module_state,
                                    plan.frame_id, static_cast<std::uint32_t>(m),
                                    static_cast<double>(s),
                                    static_cast<double>(previous_states_[m]));
                previous_states_[m] = s;
            }
            plan.states.push_back(s);
            plan.functional_modules += is_functional(s) ? 1 : 0;
        }
        return plan;
    }

    /// begin_frame numbered by the system's own call sequence (0, 1, ...).
    [[nodiscard]] FramePlan begin_frame(double time) {
        return begin_frame(time, frame_seq_++);
    }

    /// Phase 2: vote over one optional proposal per version (non-functional
    /// versions must hold std::nullopt) and emit the vote event.
    [[nodiscard]] FrameResult<Output> complete_frame(
        const FramePlan& plan, const std::vector<std::optional<Output>>& proposals) {
        FrameResult<Output> frame;
        frame.functional_modules = plan.functional_modules;
        frame.vote = voter_.vote(proposals);
        const auto posted = static_cast<double>(frame.functional_modules);
        switch (frame.vote.kind) {
            case VoteKind::decided:
                MVREJU_OBS_EVENT_AT(plan.t_ns, obs::EventKind::vote_decided,
                                    plan.frame_id, 0, posted,
                                    static_cast<double>(frame.vote.agreeing));
                break;
            case VoteKind::skipped:
                MVREJU_OBS_EVENT_AT(plan.t_ns, obs::EventKind::vote_skipped,
                                    plan.frame_id, 0, posted,
                                    static_cast<double>(frame.vote.agreeing));
                break;
            case VoteKind::no_output:
                MVREJU_OBS_EVENT_AT(plan.t_ns, obs::EventKind::vote_no_output,
                                    plan.frame_id, 0, posted, 0.0);
                break;
        }
        return frame;
    }

    /// Advance the health process to `time` and run one perception frame
    /// inline (begin_frame -> run each functional behaviour -> vote).
    [[nodiscard]] FrameResult<Output> process(double time, const Input& input) {
        const FramePlan plan = begin_frame(time);
        std::vector<std::optional<Output>> proposals;
        proposals.reserve(plan.states.size());
        for (std::size_t m = 0; m < plan.states.size(); ++m) {
            const ModuleState s = plan.states[m];
            if (!is_functional(s)) {
                proposals.emplace_back(std::nullopt);
                continue;
            }
            proposals.emplace_back(pool_->behaviour(m, s)(input));
        }
        return complete_frame(plan, proposals);
    }

    [[nodiscard]] const HealthEngine& health() const noexcept { return health_; }
    [[nodiscard]] HealthEngine& health() noexcept { return health_; }
    [[nodiscard]] std::size_t version_count() const noexcept { return pool_->size(); }
    [[nodiscard]] const std::shared_ptr<const Pool>& pool() const noexcept {
        return pool_;
    }

private:
    std::shared_ptr<const Pool> pool_;  ///< shared across streams, never cloned
    Voter<Output, Agree> voter_;
    HealthEngine health_;
    // The states of the previous plan: module_state events fire on
    // transitions only, observed at frame granularity, and the next plan
    // hands them to the driver as FramePlan::previous_states.
    std::vector<ModuleState> previous_states_;
    std::uint64_t frame_seq_ = 0;
};

}  // namespace mvreju::core
