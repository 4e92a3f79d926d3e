//! The ring-allreduce point-to-point schedule.
//!
//! Pure arithmetic over rank indices — no fabric state — but it lives
//! here because this is the lowest crate both of its executors see:
//! `shs_mpi::Communicator::allreduce` runs it over OFI endpoints, and
//! the scenario engine's `TrafficPattern::Allreduce`
//! (`slingshot_k8s::scenario`) runs it as authenticated fabric
//! transfers. Both re-export [`ring_allreduce_schedule`] under their own
//! crate root, so there is one generator and nothing to keep in sync.

/// The ring-allreduce schedule for `n` ranks and `size` bytes: one
/// inner `Vec` of `(src rank, dst rank, chunk bytes)` per step — `n−1`
/// reduce-scatter steps (step *s*: rank *i* passes chunk `(i − s) mod
/// n` to its successor) then `n−1` allgather steps (chunk `(i + 1 − s)
/// mod n`). Chunks split at byte boundaries `⌊i·size/n⌋`, so lengths
/// are balanced within one byte and sum exactly to `size`. Fewer than
/// two ranks have nothing to exchange: the schedule is empty.
pub fn ring_allreduce_schedule(n: usize, size: u64) -> Vec<Vec<(usize, usize, u64)>> {
    let steps_per_phase = n.saturating_sub(1);
    let mut steps = Vec::with_capacity(2 * steps_per_phase);
    for phase in 0..2usize {
        for s in 0..steps_per_phase {
            let mut ops = Vec::with_capacity(n);
            ring_step_into(n, size, phase, s, &mut ops);
            steps.push(ops);
        }
    }
    steps
}

/// Append one ring-allreduce step's ops (phase 0 = reduce-scatter,
/// phase 1 = allgather, step `s` within the phase) to `out`. The single
/// generator behind both [`ring_allreduce_schedule`] and the zero-alloc
/// path inside `shs_mpi::Communicator::allreduce`, so the two cannot
/// diverge.
pub fn ring_step_into(
    n: usize,
    size: u64,
    phase: usize,
    s: usize,
    out: &mut Vec<(usize, usize, u64)>,
) {
    let chunk = |idx: usize| -> u64 {
        let (n, idx) = (n as u64, (idx % n) as u64);
        (idx + 1) * size / n - idx * size / n
    };
    out.extend((0..n).map(|i| {
        let idx = match phase {
            0 => (i + n - s) % n,
            _ => (i + 1 + n - s) % n,
        };
        (i, (i + 1) % n, chunk(idx))
    }));
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fewer_than_two_ranks_have_an_empty_schedule() {
        // n = 0 used to underflow `n - 1` (a panic in debug, a ~2^64
        // iteration loop in release).
        assert!(ring_allreduce_schedule(0, 4096).is_empty());
        assert!(ring_allreduce_schedule(1, 4096).is_empty());
        assert_eq!(ring_allreduce_schedule(2, 4096).len(), 2);
    }
}
