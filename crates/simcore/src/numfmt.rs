//! Direct number writers for the byte-stable exports.
//!
//! The telemetry and trace JSONL writers emit millions of integers and
//! six-decimal floats per run. These append the exact text `Display` and
//! `{:.6}` would, without going through `core::fmt`.

/// Append the decimal digits of `v` (what `write!(out, "{v}")` writes).
pub fn push_u64(out: &mut String, v: u64) {
    let mut buf = [0u8; 20];
    let start = digits(&mut buf, v);
    push_ascii(out, &buf[start..]);
}

/// Write the digits of `v` right-aligned into `buf`; returns where they
/// start.
fn digits(buf: &mut [u8], mut v: u64) -> usize {
    let mut i = buf.len();
    loop {
        i -= 1;
        buf[i] = b'0' + (v % 10) as u8;
        v /= 10;
        if v == 0 {
            return i;
        }
    }
}

fn push_ascii(out: &mut String, text: &[u8]) {
    out.push_str(std::str::from_utf8(text).expect("ASCII digits"));
}

/// Append `v` with six fixed decimals, exactly as `write!(out, "{v:.6}")`
/// does: the exact binary value times 10⁶, rounded half to even.
/// Negative values (−0 included), NaN, infinities and values of at least
/// 2⁵³/10⁶ go through `write!`.
pub fn push_fixed6(out: &mut String, v: f64) {
    const SCALE: u64 = 1_000_000;
    if !(v.is_sign_positive() && v < (1u64 << 53) as f64 / SCALE as f64) {
        use std::fmt::Write as _;
        let _ = write!(out, "{v:.6}");
        return;
    }
    // v = m · 2^e exactly, with m < 2^53.
    let bits = v.to_bits();
    let (exp, frac) = ((bits >> 52) as i32, bits & ((1 << 52) - 1));
    let (m, e) = if exp == 0 {
        (frac, -1074)
    } else {
        (frac | 1 << 52, exp - 1075)
    };
    // v < 2^34 makes e negative: v · 10⁶ = x / 2^shift with
    // x = m · 10⁶ < 2^73, which fits a u128.
    let (x, shift) = (m as u128 * SCALE as u128, e.unsigned_abs());
    let n = if shift >= 75 {
        0 // x is below half of 2^shift
    } else {
        let (q, r) = (x >> shift, x & ((1 << shift) - 1));
        let half = 1 << (shift - 1);
        q + (r > half || (r == half && q & 1 == 1)) as u128
    };
    // v · 10⁶ < 2^53. Write the integer digits, '.', and six decimals
    // with their leading zeros.
    let n = n as u64;
    let mut buf = [0u8; 24];
    digits(&mut buf, SCALE + n % SCALE);
    buf[17] = b'.';
    let start = digits(&mut buf[..17], n / SCALE);
    push_ascii(out, &buf[start..]);
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::DetRng;

    fn fixed6(v: f64) -> String {
        let mut s = String::new();
        push_fixed6(&mut s, v);
        s
    }

    fn assert_fixed6(v: f64) {
        assert_eq!(fixed6(v), format!("{v:.6}"), "bits {:#018x}", v.to_bits());
    }

    /// Random cases of the differential: a reduced count in debug builds,
    /// the full count in release (CI runs it there).
    fn cases() -> u64 {
        if cfg!(debug_assertions) {
            200_000
        } else {
            6_000_000
        }
    }

    #[test]
    fn u64_matches_display() {
        let mut rng = DetRng::new(11);
        let edges = [
            0,
            1,
            9,
            10,
            99,
            100,
            u32::MAX as u64,
            u32::MAX as u64 + 1,
            u64::MAX,
        ];
        let random = (0..cases() / 10).map(|_| rng.next_u64() >> (rng.next_u64() % 64));
        for v in edges.into_iter().chain(random) {
            let mut s = String::from("x");
            push_u64(&mut s, v);
            assert_eq!(s, format!("x{v}"));
        }
    }

    #[test]
    fn fixed6_matches_format_on_edges() {
        let limit = (1u64 << 53) as f64 / 1e6;
        for v in [
            0.0,
            -0.0,
            f64::NAN,
            -f64::NAN,
            f64::INFINITY,
            f64::NEG_INFINITY,
            f64::MIN_POSITIVE,
            f64::from_bits(1),             // smallest subnormal
            f64::from_bits((1 << 52) - 1), // largest subnormal
            f64::MAX,
            -1.5,
            0.0000005,
            0.0000015,
            0.0000025,
            1.0 / 3.0,
            2.0 / 3.0,
            0.999_999_5,
            9.999_999_5,
            limit,
            f64::from_bits(limit.to_bits() - 1),
            f64::from_bits(limit.to_bits() + 1),
        ] {
            assert_fixed6(v);
        }
    }

    /// Binary fractions k/2^m. The odd multiples of 1/128 are the exact
    /// ties at the sixth decimal, which `{:.6}` rounds half to even.
    #[test]
    fn fixed6_matches_format_on_binary_fractions() {
        let per_m = cases() / 40;
        for m in 1..=40u32 {
            let denom = (1u64 << m) as f64;
            for k in 0..per_m {
                assert_fixed6(k as f64 / denom);
            }
        }
    }

    #[test]
    fn fixed6_matches_format_on_random_bits() {
        let mut rng = DetRng::new(6);
        for _ in 0..cases() {
            // Raw bit patterns cover every exponent, a draw in [0, 2^33)
            // the range the exporters write, and a decimal half-way
            // point the values nearest a rounding boundary.
            assert_fixed6(f64::from_bits(rng.next_u64()));
            assert_fixed6(rng.uniform() * (1u64 << (rng.next_u64() % 34)) as f64);
            assert_fixed6(((rng.next_u64() % 1_000_000_000_000) as f64 + 0.5) / 1e6);
        }
    }
}
