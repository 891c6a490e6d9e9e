//! One SMO iteration's two halves: LIBSVM's second-order working-set
//! selection ("WSS 2", Fan, Chen & Lin) and the analytic update of the
//! selected pair, with the incremental gradient update it implies. The
//! loop that alternates them lives in the `smo` module.

use crate::cache::KernelRows;
use crate::smo::EPS;

/// Lower bound substituted for non-positive second-order curvature
/// (LIBSVM's `TAU`).
const TAU: f64 = 1e-12;

/// LIBSVM's second-order working-set selection. Returns `None` when the
/// KKT gap is within tolerance — the problem is solved.
pub(crate) fn select_working_set<Q: KernelRows>(
    q: &mut Q,
    qd: &[f64],
    y: &[f64],
    c: &[f64],
    alpha: &[f64],
    g: &[f64],
) -> Option<(usize, usize)> {
    let n = y.len();
    // i = argmax_{t ∈ I_up} −y_t G_t
    let mut gmax = f64::NEG_INFINITY;
    let mut i: isize = -1;
    for t in 0..n {
        let in_i_up = if y[t] > 0.0 {
            alpha[t] < c[t]
        } else {
            alpha[t] > 0.0
        };
        if in_i_up {
            let v = -y[t] * g[t];
            if v >= gmax {
                gmax = v;
                i = t as isize;
            }
        }
    }
    if i < 0 {
        return None;
    }
    let i = i as usize;

    // j = argmin over violating t ∈ I_low of the second-order gain.
    let kii = qd[i];
    let ki = q.row(i);
    let mut gmax2 = f64::NEG_INFINITY; // max_{I_low} y_t G_t  (= −M(α))
    let mut j: isize = -1;
    let mut obj_min = f64::INFINITY;
    for t in 0..n {
        let in_i_low = if y[t] > 0.0 {
            alpha[t] > 0.0
        } else {
            alpha[t] < c[t]
        };
        if !in_i_low {
            continue;
        }
        let ygt = y[t] * g[t];
        if ygt >= gmax2 {
            gmax2 = ygt;
        }
        let grad_diff = gmax + ygt;
        if grad_diff > 0.0 {
            // Second-order curvature along the (i, t) direction is
            // ‖φ(x_i) − φ(x_t)‖² regardless of the label combination.
            let mut quad = kii + qd[t] - 2.0 * ki[t];
            if quad <= 0.0 {
                quad = TAU;
            }
            let obj = -(grad_diff * grad_diff) / quad;
            if obj <= obj_min {
                obj_min = obj;
                j = t as isize;
            }
        }
    }

    if gmax + gmax2 < EPS || j < 0 {
        return None;
    }
    Some((i, j as usize))
}

/// Solves the two-variable subproblem of the working set `(i, j)` in
/// closed form, clips it to the box, and applies the change to the
/// gradient.
pub(crate) fn update_pair<Q: KernelRows>(
    q: &mut Q,
    qd: &[f64],
    y: &[f64],
    c: &[f64],
    alpha: &mut [f64],
    g: &mut [f64],
    (i, j): (usize, usize),
) {
    let n = y.len();
    let old_ai = alpha[i];
    let old_aj = alpha[j];
    let ci = c[i];
    let cj = c[j];

    let (ki, kj) = q.pair(i, j);

    // In both branches the curvature along the update direction is
    // ‖φ(x_i) − φ(x_j)‖² = K_ii + K_jj − 2K_ij (LIBSVM writes it as
    // QD[i] + QD[j] ± 2Q_ij because Q already carries y_i y_j).
    if y[i] != y[j] {
        let mut quad = qd[i] + qd[j] - 2.0 * ki[j];
        if quad <= 0.0 {
            quad = TAU;
        }
        let delta = (-g[i] - g[j]) / quad;
        let diff = alpha[i] - alpha[j];
        alpha[i] += delta;
        alpha[j] += delta;

        if diff > 0.0 {
            if alpha[j] < 0.0 {
                alpha[j] = 0.0;
                alpha[i] = diff;
            }
        } else if alpha[i] < 0.0 {
            alpha[i] = 0.0;
            alpha[j] = -diff;
        }
        if diff > ci - cj {
            if alpha[i] > ci {
                alpha[i] = ci;
                alpha[j] = ci - diff;
            }
        } else if alpha[j] > cj {
            alpha[j] = cj;
            alpha[i] = cj + diff;
        }
    } else {
        let mut quad = qd[i] + qd[j] - 2.0 * ki[j];
        if quad <= 0.0 {
            quad = TAU;
        }
        let delta = (g[i] - g[j]) / quad;
        let sum = alpha[i] + alpha[j];
        alpha[i] -= delta;
        alpha[j] += delta;

        if sum > ci {
            if alpha[i] > ci {
                alpha[i] = ci;
                alpha[j] = sum - ci;
            }
        } else if alpha[j] < 0.0 {
            alpha[j] = 0.0;
            alpha[i] = sum;
        }
        if sum > cj {
            if alpha[j] > cj {
                alpha[j] = cj;
                alpha[i] = sum - cj;
            }
        } else if alpha[i] < 0.0 {
            alpha[i] = 0.0;
            alpha[j] = sum;
        }
    }

    // Incremental gradient update: G_t += Q_ti Δα_i + Q_tj Δα_j. The
    // flat row layout makes this the linear scan of two contiguous
    // rows.
    let dai = alpha[i] - old_ai;
    let daj = alpha[j] - old_aj;
    if dai != 0.0 || daj != 0.0 {
        let yi = y[i];
        let yj = y[j];
        for t in 0..n {
            g[t] += y[t] * (yi * ki[t] * dai + yj * kj[t] * daj);
        }
    }
}
