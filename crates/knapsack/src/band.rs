//! Density bands: the classes a caller sorts items into to choose the
//! part of an instance it hands [`crate::AdaptiveSolver::solve_leaving_out`].
//!
//! An item's band is read off its density's bits: the top 16 bits of
//! `(profit / size).to_bits()` — sign, exponent and four mantissa bits,
//! so 16 bands an octave, each an interval `[lower edge, upper edge)` of
//! densities. [`BANDS`] bands run from 64 octaves below a density of 1
//! to 64 above it; a density outside that range counts in the band at
//! its end, and an item without positive profit is in band 0. A caller
//! that keeps the items above a *cut* and leaves out the bands up to it
//! has left out only items below [`band_edge`]`(cut)`: the upper edge of
//! band `cut`, the lower edge of the first band it kept.

/// Number of density bands; bands are numbered `1..=BANDS`, and a cut
/// is in `0..BANDS`.
pub const BANDS: u16 = 2048;

/// `to_bits() >> 48` of band 1's lower edge, `2⁻⁶⁴`.
const LOWEST: u64 = 0x3FF0 - BANDS as u64 / 2;

/// The band of an item of `size` units and `profit`: `0` when the
/// profit is not positive, else in `1..=BANDS`. A size-0 item has an
/// infinite density and the top band.
#[inline]
pub fn density_band(profit: f64, size: u64) -> u16 {
    if profit > 0.0 {
        let top = (profit / size as f64).to_bits() >> 48;
        1 + top.saturating_sub(LOWEST).min(u64::from(BANDS) - 1) as u16
    } else {
        0
    }
}

/// The density every item of band `cut` or lower is below: the upper
/// edge of band `cut`. `0.0` at cut 0, which leaves nothing with
/// positive profit out.
pub fn band_edge(cut: u16) -> f64 {
    if cut == 0 {
        0.0
    } else {
        f64::from_bits((u64::from(cut) + LOWEST) << 48)
    }
}

/// The highest cut whose [`band_edge`] is at most `density`: leaving
/// out the bands up to it leaves out only items below `density`.
pub fn cut_below(density: f64) -> u16 {
    (density.to_bits() >> 48)
        .saturating_sub(LOWEST)
        .min(u64::from(BANDS) - 1) as u16
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_cut_separates_its_bands_at_its_edge() {
        let mut state = 0x5EED_u64;
        for i in 0..20_000u64 {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            // Densities from 2⁻⁸⁰ to 2⁸⁰, past both ends of the bands.
            let exponent = (state >> 33) % 160;
            let mantissa = 1.0 + (state >> 11 & 0xFFFF) as f64 / 65536.0;
            let size = 1 + i % 9;
            let density = mantissa * 2f64.powi(exponent as i32 - 80);
            let profit = density * size as f64;
            let band = density_band(profit, size);
            assert!((1..=BANDS).contains(&band));
            let density = profit / size as f64;
            for cut in [0, 1, band.saturating_sub(1), band, band + 1, BANDS - 1] {
                let cut = cut.min(BANDS - 1);
                if band <= cut {
                    assert!(
                        density < band_edge(cut),
                        "{density} in band {band}, cut {cut}"
                    );
                } else {
                    assert!(
                        density >= band_edge(cut),
                        "{density} in band {band}, cut {cut}"
                    );
                }
            }
            assert!(band_edge(cut_below(density)) <= density);
            assert!(band_edge(cut_below(density) + 1) > density || cut_below(density) == BANDS - 1);
        }
        assert_eq!(density_band(0.0, 3), 0);
        assert_eq!(density_band(1.0, 0), BANDS);
        assert_eq!(cut_below(0.0), 0);
        assert_eq!(cut_below(f64::INFINITY), BANDS - 1);
    }
}
