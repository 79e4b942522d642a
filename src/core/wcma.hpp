// wcma.hpp — the solar energy predictor evaluated by the paper (Eqs. 1–5).
//
// The algorithm of Recas et al. [5] — a Weather-Conditioned Moving Average —
// predicts the power at the next slot boundary as a blend of
//
//     ê(n+1) = α·ẽ(n)  +  (1−α)·μ_D(n+1)·Φ_K
//              ^persistence   ^conditioned-average
//
// where μ_D(n+1) is the average of the same slot over the last D days
// (Eq. 2) and Φ_K conditions that average on how bright/cloudy TODAY is
// relative to those days: a weighted average (weights θ(k)=k/K rising to 1
// at the most recent slot, Eq. 5) of the ratios η(k) between today's
// measured slots and their historical averages (Eqs. 3–4).
//
// Parameters (paper Sec. II):
//   α ∈ [0,1]  — weighting between the two terms,
//   D ≥ 1      — past days kept in the history matrix (memory cost D·N),
//   K ≥ 1      — today's slots entering the conditioning factor,
//   N          — slots per day (the prediction horizon is T = 86400/N s).
//
// Numerical edge cases are defined explicitly here (the paper leaves them
// implicit; all are outside the region of interest of the evaluation):
//   * η(k) with μ_D ≈ 0 (night): the ratio is taken as 1 (neutral).
//   * Before the history matrix holds any day, the conditioned-average term
//     falls back to the current sample (pure persistence).
//   * Fewer than K slots observed so far: Φ uses the available ones.
//
// The streaming classes here use only the paper's ramp θ(k) = k/K.  The
// uniform θ(k) = 1 of ablation A is a sweep-evaluator option
// (sweep/evaluator.hpp, WcmaWeighting), not a predictor option.
#pragma once

#include <cstddef>
#include <string>

#include "common/fixed_ring.hpp"
#include "core/predictor.hpp"
#include "timeseries/history.hpp"

namespace shep {

/// Tuning parameters of the WCMA predictor.
struct WcmaParams {
  double alpha = 0.7;  ///< persistence weight α ∈ [0,1].
  int days = 20;       ///< D: history depth in days (>= 1).
  int slots_k = 3;     ///< K: conditioning window in slots (>= 1).

  /// Throws std::invalid_argument when out of range.
  void Validate() const;

  /// Validate() plus the checks against the deployment's N (N >= 2 and
  /// K < N).  Returns *this so a constructor can run it in its
  /// member-initializer list, before sizing storage from the parameters.
  const WcmaParams& ValidFor(int slots_per_day) const;
};

/// One elapsed slot as Φ sees it: the measured sample and the historical
/// average μ_D of its slot as it stood when the sample was measured.
struct WcmaRecentSlot {
  double sample;
  double mu;
};

/// The streaming state of the double-precision WCMA backends (Wcma,
/// AdaptiveWcma and hw/VmWcmaPredictor): the D-day history with today's
/// slot cursor, and the newest `window` (sample, μ) pairs.  Sized at
/// construction; Observe and Clear never allocate.
class WcmaState {
 public:
  WcmaState(std::size_t days, std::size_t slots_per_day, std::size_t window);

  /// Records (sample, μ_D of its slot as seen now) and appends the sample
  /// to the history.  μ is read before today enters the matrix, which also
  /// makes the window's wrap-around across the day boundary automatic;
  /// before any day is stored μ is the sample itself (η = 1, neutral).
  void Observe(double sample);

  /// Back to the just-constructed state, reusing the storage.
  void Clear();

  const HistoryMatrix& history() const { return history_; }
  const FixedRing<WcmaRecentSlot>& recent() const { return recent_; }

  /// μ_D of the slot the next Observe fills (requires a stored day).
  double MuNext() const { return history_.Mu(history_.next_slot()); }

  /// Φ_K (Eqs. 3–5) over the newest k <= recent().size() entries: the
  /// θ-weighted mean of η = sample/μ, with the ramp θ = 1/k .. k/k rising
  /// to 1 at the newest entry, and η = 1 at night (μ ≈ 0).  1 when k == 0.
  double Phi(std::size_t k) const;

  /// Eq. 1 with Φ over the whole window.  Before any day is stored the
  /// conditioned term degenerates to the last sample (persistence).
  double Predict(double alpha) const;

 private:
  HistoryMatrix history_;
  FixedRing<WcmaRecentSlot> recent_;
};

/// Streaming implementation of the predictor.
class Wcma final : public Predictor {
 public:
  /// \param slots_per_day  N of the deployment (must match the series the
  ///                       predictor is run against).
  Wcma(const WcmaParams& params, int slots_per_day);

  void Observe(double boundary_sample) override;
  double PredictNext() const override;
  void Reset() override;
  std::string Name() const override;

  const WcmaParams& params() const { return params_; }

  /// The conditioning factor Φ_K that the next PredictNext() will use;
  /// exposed for tests and for the dynamic-parameter study.
  double CurrentPhi() const;

 private:
  WcmaParams params_;
  WcmaState state_;
};

}  // namespace shep
