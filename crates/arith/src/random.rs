//! Small sampling helpers shared by the generators.

use rand::Rng;

/// Draws uniformly from `[0, bound)` for a `u64` bound via rejection, mirroring
/// [`crate::BigNat::uniform_below`] for the common small case.
///
/// # Panics
/// Panics if `bound` is zero.
pub fn uniform_below_u64<R: Rng + ?Sized>(bound: u64, rng: &mut R) -> u64 {
    assert!(bound > 0, "uniform_below_u64: bound must be positive");
    rng.gen_range(0..bound)
}

/// Draws uniformly from `[0, bound)` for a `u64` bound, consuming the rng
/// exactly as [`crate::BigNat::uniform_below`] does for a one-limb bound:
/// one `u64` per try, masked to the bit length of `bound`. Exact samplers
/// that switch between `BigNat` and `u64` arithmetic mid-walk use it so the
/// switch cannot change a draw.
///
/// # Panics
/// Panics if `bound` is zero.
pub fn masked_uniform_below_u64<R: Rng + ?Sized>(bound: u64, rng: &mut R) -> u64 {
    assert!(
        bound > 0,
        "masked_uniform_below_u64: bound must be positive"
    );
    let mask = u64::MAX >> bound.leading_zeros();
    loop {
        let candidate = rng.gen::<u64>() & mask;
        if candidate < bound {
            return candidate;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn in_range() {
        let mut rng = StdRng::seed_from_u64(1);
        for _ in 0..100 {
            assert!(uniform_below_u64(7, &mut rng) < 7);
        }
    }

    #[test]
    fn masked_draws_match_one_limb_bignat_draws() {
        for bound in [1u64, 2, 5, 1 << 40, (1 << 63) + 3, u64::MAX] {
            let mut a = StdRng::seed_from_u64(bound);
            let mut b = StdRng::seed_from_u64(bound);
            let big = crate::BigNat::from_u64(bound);
            for _ in 0..50 {
                let x = masked_uniform_below_u64(bound, &mut a);
                assert_eq!(Some(x), crate::BigNat::uniform_below(&big, &mut b).to_u64());
            }
        }
    }

    #[test]
    #[should_panic(expected = "bound must be positive")]
    fn zero_bound_panics() {
        let mut rng = StdRng::seed_from_u64(1);
        uniform_below_u64(0, &mut rng);
    }
}
