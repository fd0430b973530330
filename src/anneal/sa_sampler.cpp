#include "anneal/sa_sampler.h"

#include <algorithm>
#include <cmath>

#include "anneal/sa_batch.h"
#include "anneal/schedule.h"

namespace hyqsat::anneal {

namespace {

/**
 * Width of the boundary band inside which a cached delta is
 * recomputed with the legacy summation order before the
 * accept/reject decision. Coefficients in this codebase are O(0.1)
 * to O(10) (normalized QUBOs, unit chain couplings, sigma*range
 * noise), so genuine deltas are either exactly zero — frequent, and
 * the dangerous case, since `dE <= 0` consumes no uniform draw — or
 * well outside this band; incremental-update drift is bounded far
 * below it. Recomputing inside the band costs one legacy-style
 * O(deg) scan on a vanishing fraction of proposals.
 */
constexpr double kBoundaryBand = 1e-9;

/**
 * exp(-x) is exactly 0.0 for every x above this, so an uphill move
 * with beta*dE beyond it can never be accepted — by any uniform in
 * [0, 1) — and the exp() call is skipped (the draw still happens, to
 * keep the stream aligned).
 */
constexpr double kExpUnderflow = 746.0;

/**
 * Per-thread memo of the inverse-temperature ramp and the per-sweep
 * acceptance threshold table (the dE beyond which exp underflows):
 * consecutive samples reuse the same schedule, so rebuild only when
 * the options change. Thread-local so concurrent callers never share.
 */
struct ScheduleMemo
{
    double beta_start = -1.0;
    double beta_end = -1.0;
    int sweeps = -1;
    std::vector<double> betas;
    std::vector<double> max_delta; ///< per-sweep acceptance threshold

    const ScheduleMemo &
    refresh(const SaOptions &opts)
    {
        const int n = std::max(opts.sweeps, 1);
        if (opts.beta_start == beta_start && opts.beta_end == beta_end &&
            n == sweeps)
            return *this;
        beta_start = opts.beta_start;
        beta_end = opts.beta_end;
        sweeps = n;
        betas = geometricBetaSchedule(opts.beta_start, opts.beta_end, n);
        max_delta.resize(betas.size());
        for (std::size_t i = 0; i < betas.size(); ++i)
            max_delta[i] = kExpUnderflow / betas[i];
        return *this;
    }
};

const ScheduleMemo &
scheduleFor(const SaOptions &opts)
{
    thread_local ScheduleMemo memo;
    return memo.refresh(opts);
}

} // namespace

// ----------------------------------------------------------------------
// SaCompiled
// ----------------------------------------------------------------------

SaCompiled
SaCompiled::build(const qubo::IsingModel &model, bool include_zero)
{
    SaCompiled out;
    out.csr = qubo::CsrIsing::fromModel(model, include_zero);
    out.group_of.assign(out.numSpins(), -1);
    out.edge_ptr.assign(1, 0);
    return out;
}

void
SaCompiled::compileGroups(const std::vector<std::vector<int>> &gs)
{
    groups = gs;
    group_of.assign(numSpins(), -1);
    for (std::size_t g = 0; g < groups.size(); ++g)
        for (int i : groups[g])
            group_of[i] = static_cast<int>(g);

    edge_ptr.assign(1, 0);
    edge_u.clear();
    edge_v.clear();
    edge_slot.clear();
    for (std::size_t g = 0; g < groups.size(); ++g) {
        for (int i : groups[g]) {
            for (std::int32_t k = csr.row_ptr[i]; k < csr.row_ptr[i + 1];
                 ++k) {
                const int j = csr.col[k];
                if (j > i && group_of[j] == static_cast<int>(g)) {
                    edge_u.push_back(i);
                    edge_v.push_back(j);
                    edge_slot.push_back(k);
                }
            }
        }
        edge_ptr.push_back(static_cast<std::int32_t>(edge_u.size()));
    }
}

// ----------------------------------------------------------------------
// detail::IncrementalIsing
// ----------------------------------------------------------------------

namespace detail {

void
IncrementalIsing::reset(const SaCompiled &c, const double *h,
                        const double *w, std::vector<std::int8_t> spins)
{
    c_ = &c;
    h_ = h;
    w_ = w;
    spins_ = std::move(spins);
    const int n = c.numSpins();
    f_.assign(n, 0.0);

    // One pass builds both the local fields and the running energy
    // (each coupling counted once at its j > i twin, legacy order).
    double e = c.csr.offset;
    for (int i = 0; i < n; ++i) {
        double f = h_[i];
        for (std::int32_t k = c.csr.row_ptr[i]; k < c.csr.row_ptr[i + 1];
             ++k) {
            const int j = c.csr.col[k];
            f += w_[k] * spins_[j];
            if (j > i)
                e += w_[k] * spins_[i] * spins_[j];
        }
        f_[i] = f;
        e += h_[i] * spins_[i];
    }
    energy_ = e;
}

double
IncrementalIsing::freshFlipDelta(int i) const
{
    double f = h_[i];
    for (std::int32_t k = c_->csr.row_ptr[i]; k < c_->csr.row_ptr[i + 1];
         ++k)
        f += w_[k] * spins_[c_->csr.col[k]];
    return -2.0 * spins_[i] * f;
}

double
IncrementalIsing::groupDelta(int g) const
{
    // Flipping the block negates every member's field term and its
    // boundary couplings; in-group couplings are invariant, so the
    // naive sum of single-spin deltas double-counts them with the
    // wrong sign — the +4 w s_u s_v terms put them back.
    double delta = 0.0;
    for (int i : c_->groups[g])
        delta += -2.0 * spins_[i] * f_[i];
    for (std::int32_t e = c_->edge_ptr[g]; e < c_->edge_ptr[g + 1]; ++e) {
        delta += 4.0 * w_[c_->edge_slot[e]] * spins_[c_->edge_u[e]] *
                 spins_[c_->edge_v[e]];
    }
    return delta;
}

double
IncrementalIsing::freshGroupDelta(int g) const
{
    double delta = 0.0;
    for (int i : c_->groups[g]) {
        double boundary = h_[i];
        for (std::int32_t k = c_->csr.row_ptr[i];
             k < c_->csr.row_ptr[i + 1]; ++k) {
            const int j = c_->csr.col[k];
            if (c_->group_of[j] != g)
                boundary += w_[k] * spins_[j];
        }
        delta += -2.0 * spins_[i] * boundary;
    }
    return delta;
}

void
IncrementalIsing::applyFlip(int i, double delta)
{
    const std::int8_t old = spins_[i];
    for (std::int32_t k = c_->csr.row_ptr[i]; k < c_->csr.row_ptr[i + 1];
         ++k)
        f_[c_->csr.col[k]] -= 2.0 * w_[k] * old;
    spins_[i] = -old;
    energy_ += delta;
}

void
IncrementalIsing::applyGroup(int g, double delta)
{
    // Neighbor fields update against the members' OLD spins, so all
    // field updates happen before any member is negated.
    for (int i : c_->groups[g]) {
        const std::int8_t old = spins_[i];
        for (std::int32_t k = c_->csr.row_ptr[i];
             k < c_->csr.row_ptr[i + 1]; ++k)
            f_[c_->csr.col[k]] -= 2.0 * w_[k] * old;
    }
    for (int i : c_->groups[g])
        spins_[i] = -spins_[i];
    energy_ += delta;
}

} // namespace detail

// ----------------------------------------------------------------------
// SaSampler
// ----------------------------------------------------------------------

SaSampler::SaSampler(const qubo::IsingModel &model)
    : compiled_(std::make_shared<SaCompiled>(
          SaCompiled::build(model, /*include_zero=*/false)))
{
    h_ = compiled_->csr.h.data();
    w_ = compiled_->csr.w.data();
}

SaSampler::SaSampler(std::shared_ptr<const SaCompiled> compiled)
    : compiled_(std::move(compiled))
{
    h_ = compiled_->csr.h.data();
    w_ = compiled_->csr.w.data();
}

void
SaSampler::setGroups(const std::vector<std::vector<int>> &groups)
{
    // Copy-on-write: the compiled model may be shared (memoized next
    // to an embed-cache entry), so never mutate it in place.
    auto clone = std::make_shared<SaCompiled>(*compiled_);
    clone->compileGroups(groups);
    compiled_ = std::move(clone);
    if (!external_coeffs_) {
        h_ = compiled_->csr.h.data();
        w_ = compiled_->csr.w.data();
    }
}

void
SaSampler::setCoeffs(const double *h, const double *w)
{
    external_coeffs_ = h != nullptr;
    h_ = h ? h : compiled_->csr.h.data();
    w_ = w ? w : compiled_->csr.w.data();
}

SaResult
SaSampler::runChain(const SaOptions &opts, Rng &rng) const
{
    const SaCompiled &c = *compiled_;
    const int n = c.numSpins();
    const std::size_t num_groups = c.groups.size();

    std::vector<std::int8_t> init(n);
    for (auto &s : init)
        s = rng.chance(0.5) ? 1 : -1;

    detail::IncrementalIsing inc;
    inc.reset(c, h_, w_, std::move(init));

    SaStats stats;
    stats.reads = 1;

    const ScheduleMemo &schedule = scheduleFor(opts);
    for (std::size_t sweep = 0; sweep < schedule.betas.size(); ++sweep) {
        if (opts.stopRequested()) { // cancellation point
            stats.stopped = true;
            break;
        }
        const double beta = schedule.betas[sweep];
        const double max_delta = schedule.max_delta[sweep];
        for (int i = 0; i < n; ++i) {
            // Energy change of flipping spin i:
            // dE = -2 * s_i * (h_i + sum_j J_ij s_j).
            double delta = inc.flipDelta(i);
            if (delta > -kBoundaryBand && delta < kBoundaryBand)
                delta = inc.freshFlipDelta(i); // exactness guard
            ++stats.flips_attempted;
            if (delta <= 0.0) {
                inc.applyFlip(i, delta);
                ++stats.flips_accepted;
            } else {
                // The uniform draw happens exactly when dE > 0 (the
                // pinned RNG-consumption contract); exp() only when
                // it can possibly accept.
                const double u = rng.uniform();
                if (delta <= max_delta &&
                    u < std::exp(-beta * delta)) {
                    inc.applyFlip(i, delta);
                    ++stats.flips_accepted;
                }
            }
        }
        // Block moves over registered groups (qubit chains).
        for (std::size_t g = 0; g < num_groups; ++g) {
            const int gi = static_cast<int>(g);
            double delta = inc.groupDelta(gi);
            if (delta > -kBoundaryBand && delta < kBoundaryBand)
                delta = inc.freshGroupDelta(gi);
            ++stats.flips_attempted;
            if (delta <= 0.0) {
                inc.applyGroup(gi, delta);
                ++stats.flips_accepted;
            } else {
                const double u = rng.uniform();
                if (delta <= max_delta &&
                    u < std::exp(-beta * delta)) {
                    inc.applyGroup(gi, delta);
                    ++stats.flips_accepted;
                }
            }
        }
        ++stats.sweeps;
    }

    if (opts.greedy_finish && !stats.stopped) {
        bool improved = true;
        int guard = 0;
        while (improved && guard++ < 4 * n) {
            if (opts.stopRequested()) {
                stats.stopped = true;
                break;
            }
            improved = false;
            for (int i = 0; i < n; ++i) {
                double delta = inc.flipDelta(i);
                if (delta > -kBoundaryBand && delta < kBoundaryBand)
                    delta = inc.freshFlipDelta(i);
                ++stats.flips_attempted;
                if (delta < 0.0) {
                    inc.applyFlip(i, delta);
                    ++stats.flips_accepted;
                    improved = true;
                }
            }
            for (std::size_t g = 0; g < num_groups; ++g) {
                const int gi = static_cast<int>(g);
                double delta = inc.groupDelta(gi);
                if (delta > -kBoundaryBand && delta < kBoundaryBand)
                    delta = inc.freshGroupDelta(gi);
                ++stats.flips_attempted;
                if (delta < 0.0) {
                    inc.applyGroup(gi, delta);
                    ++stats.flips_accepted;
                    improved = true;
                }
            }
        }
    }

    SaResult result;
    result.energy = inc.energy();
    result.spins = inc.takeSpins();
    result.stats = stats;
    return result;
}

SaResult
SaSampler::sample(const SaOptions &opts, Rng &rng) const
{
    if (opts.num_reads <= 1)
        return runChain(opts, rng);
    auto all = sampleAll(opts, rng);
    return std::move(all.front());
}

std::vector<SaResult>
SaSampler::sampleAll(const SaOptions &opts, Rng &rng) const
{
    const int reads = std::max(opts.num_reads, 1);
    if (reads == 1) {
        std::vector<SaResult> out(1);
        out[0] = runChain(opts, rng);
        return out;
    }

    // One caller draw seeds the whole run (per-group bases + init
    // lanes + Metropolis streams); results are bit-identical across
    // ISAs and thread counts. sampleLockstep fans the lockstep groups
    // across the shared WorkPool; each group writes its own disjoint
    // result slots, so this single-threaded aggregation is the only
    // merge and it happens contention-free after the barrier.
    std::vector<SaResult> out = sampleLockstep(
        *compiled_, h_, w_, opts, rng.next(), simd::activeIsa());
    SaStats total;
    total.reads = static_cast<std::uint64_t>(reads);
    total.read_groups = static_cast<std::uint64_t>(
        lockstepGroupCount(reads, opts.reads_groups));
    for (const SaResult &r : out) {
        total.sweeps += r.stats.sweeps;
        total.flips_attempted += r.stats.flips_attempted;
        total.flips_accepted += r.stats.flips_accepted;
        total.stopped |= r.stats.stopped;
    }
    std::stable_sort(out.begin(), out.end(),
                     [](const SaResult &a, const SaResult &b) {
                         return a.energy < b.energy;
                     });
    out.front().stats = total;
    return out;
}

} // namespace hyqsat::anneal
