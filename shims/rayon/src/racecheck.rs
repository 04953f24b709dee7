//! Dynamic overlap/bounds checker for partitions the borrow checker
//! cannot see.
//!
//! Pool tasks own the `&mut` pieces they write ([`run_items`](crate::run_items)
//! hands them out, `split_at_mut` cuts them), so two tasks cannot alias by
//! construction.  What remains a promise is index arithmetic *inside* one
//! piece or one thread: an `SpmvPlan`'s SELL blocks must tile their chunk's
//! rows and stay within the stored non-zeros (the traversal skips bounds
//! checks on that strength), a halo plan's receive ranges must partition
//! the halo buffer, and the pool's own length split must tile `0..len`.  A
//! bug there would be a wrong answer or an out-of-bounds read that only
//! shows under load.
//!
//! [`ClaimSet`] turns that promise into a checked assertion: one claim set
//! per index space, every range claimed before it is used.  With the
//! `racecheck` feature **off** (the default) the type is a zero-sized no-op
//! and the claim calls compile away.  With `racecheck` **on**, every claim
//! is recorded under a mutex and checked against all previously claimed
//! ranges of the same space: any overlap or out-of-bounds claim panics with
//! both offending ranges, and the pool's panic plumbing carries the report
//! back to the caller regardless of which worker thread detected it.
//! [`run_chunks`](crate::run_chunks) claims every chunk range it computes,
//! guarding the split formula itself.

#[cfg(feature = "racecheck")]
mod imp {
    use std::sync::Mutex;

    /// Records the ranges claimed against one index space and panics on
    /// any overlap or out-of-bounds claim.
    #[derive(Debug)]
    pub struct ClaimSet {
        len: usize,
        claimed: Mutex<Vec<(usize, usize)>>,
    }

    impl ClaimSet {
        /// A fresh claim set for an index space of `len` elements.
        pub fn new(len: usize) -> ClaimSet {
            ClaimSet {
                len,
                claimed: Mutex::new(Vec::new()),
            }
        }

        /// Claims `start..end`, panicking if the range is malformed, out
        /// of bounds, or overlaps a previously claimed range.
        ///
        /// # Panics
        /// On any violation of the disjoint-in-bounds contract — that is
        /// the feature's entire purpose.
        pub fn claim(&self, start: usize, end: usize) {
            assert!(
                start <= end,
                "racecheck: malformed range {start}..{end} (start > end)"
            );
            assert!(
                end <= self.len,
                "racecheck: range {start}..{end} out of bounds for buffer of len {}",
                self.len
            );
            // Empty ranges touch no element, so they can never alias —
            // validated above, then dropped without recording.
            if start == end {
                return;
            }
            let mut claimed = self.claimed.lock().unwrap();
            for &(s, e) in claimed.iter() {
                if start < e && s < end {
                    panic!(
                        "racecheck: mutable range {start}..{end} overlaps \
                         previously claimed {s}..{e} (buffer len {})",
                        self.len
                    );
                }
            }
            claimed.push((start, end));
        }

        /// Number of ranges claimed so far (test support).
        #[cfg(test)]
        pub(crate) fn claimed_ranges(&self) -> usize {
            self.claimed.lock().unwrap().len()
        }
    }
}

#[cfg(not(feature = "racecheck"))]
mod imp {
    /// No-op stand-in compiled when the `racecheck` feature is off: a
    /// zero-sized type whose methods inline to nothing, so instrumented
    /// kernels pay no cost in production builds.
    #[derive(Debug)]
    pub struct ClaimSet;

    impl ClaimSet {
        /// A fresh (zero-sized) claim set; `len` is ignored.
        #[inline(always)]
        pub fn new(_len: usize) -> ClaimSet {
            ClaimSet
        }

        /// No-op claim.
        #[inline(always)]
        pub fn claim(&self, _start: usize, _end: usize) {}
    }
}

pub use imp::ClaimSet;

/// Whether the race/aliasing checker is compiled in.
pub const fn enabled() -> bool {
    cfg!(feature = "racecheck")
}

#[cfg(all(test, feature = "racecheck"))]
mod tests {
    use super::ClaimSet;
    use std::panic::catch_unwind;

    #[test]
    fn disjoint_claims_pass() {
        let c = ClaimSet::new(100);
        c.claim(0, 25);
        c.claim(50, 100);
        c.claim(25, 50);
        assert_eq!(c.claimed_ranges(), 3);
    }

    #[test]
    fn overlap_panics() {
        let c = ClaimSet::new(100);
        c.claim(0, 30);
        let err = catch_unwind(|| c.claim(29, 40)).unwrap_err();
        let msg = err.downcast_ref::<String>().unwrap();
        assert!(msg.contains("overlaps"), "unexpected message: {msg}");
    }

    #[test]
    fn out_of_bounds_panics() {
        let c = ClaimSet::new(10);
        assert!(catch_unwind(|| c.claim(5, 11)).is_err());
        assert!(catch_unwind(|| c.claim(7, 6)).is_err());
    }

    #[test]
    fn empty_ranges_never_alias() {
        let c = ClaimSet::new(10);
        c.claim(5, 5);
        c.claim(5, 5);
        c.claim(0, 10);
    }
}
