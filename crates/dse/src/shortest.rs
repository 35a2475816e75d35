//! The shortest round-trip spelling of an `f64`, laid out exactly as `std`'s
//! `Display` lays it out, without going through `core::fmt`.
//!
//! The digits come from Ryu (Ulf Adams, "Ryū: fast float-to-string
//! conversion", PLDI 2018). The value and the two midpoints to its
//! neighbours are scaled by a power of ten with one 64 × 128-bit multiply
//! each, and digits are dropped while the interval between the midpoints
//! still holds a shorter decimal. The result is the shortest decimal that
//! reads back as the same `f64` and, of those, the closest to it. Where two
//! are equally close, which happens only for values in `[2^50, 2^51)`
//! ending in `.25` or `.75`, the larger wins: that is what `std` prints,
//! while Ryu proper would round to even.
//!
//! The power-of-five tables are computed at compile time by exact integer
//! arithmetic (`pow5_table`, `pow5_inv_table`), and a unit test derives every
//! entry again by long division. `format!("{v}")` is the oracle the tests
//! hold [`push_f64`] to, byte for byte.

/// Significant bits kept of each power of five.
const POW5_BITS: u32 = 125;
/// Powers `5^i` a negative binary exponent asks for: `i ≤ 325`.
const POW5_LEN: usize = 326;
/// Powers `5^-q` a positive binary exponent asks for: `q ≤ 290`.
const POW5_INV_LEN: usize = 291;

/// `5^i` cut to its top `POW5_BITS` bits, or shifted up to them.
static POW5: [u128; POW5_LEN] = pow5_table();
/// `⌊2^(bits(5^q) − 1 + POW5_BITS) / 5^q⌋ + 1`: `5^-q` scaled to
/// `POW5_BITS` bits and rounded up.
static POW5_INV: [u128; POW5_INV_LEN] = pow5_inv_table();

/// `"00" "01" … "99"`, two bytes a pair.
static DIGIT_PAIRS: [u8; 200] = {
    let mut pairs = [0; 200];
    let mut i = 0;
    while i < 100 {
        pairs[2 * i] = b'0' + (i / 10) as u8;
        pairs[2 * i + 1] = b'0' + (i % 10) as u8;
        i += 1;
    }
    pairs
};

/// A little-endian unsigned integer wide enough for `2^INV_SHIFT` and
/// `5^(POW5_LEN − 1)`.
type Big = [u64; 13];

/// The exponent of the power of two the inverse table divides: the largest
/// `bits(5^q) − 1 + POW5_BITS` it needs (at `q = 290`).
const INV_SHIFT: u32 = 798;

const fn bit_len(x: &Big) -> u32 {
    let mut i = x.len();
    while i > 0 {
        i -= 1;
        if x[i] != 0 {
            return 64 * i as u32 + 64 - x[i].leading_zeros();
        }
    }
    0
}

/// Limb `i` of `x`, zero past its end.
const fn limb(x: &Big, i: usize) -> u128 {
    if i < x.len() {
        x[i] as u128
    } else {
        0
    }
}

/// `⌊x / 2^shift⌋ mod 2^128`.
const fn shr(x: &Big, shift: u32) -> u128 {
    let (at, offset) = ((shift / 64) as usize, shift % 64);
    let low = limb(x, at) | limb(x, at + 1) << 64;
    if offset == 0 {
        low
    } else {
        low >> offset | limb(x, at + 2) << (128 - offset)
    }
}

const fn times5(mut x: Big) -> Big {
    let mut carry = 0;
    let mut i = 0;
    while i < x.len() {
        let product = x[i] as u128 * 5 + carry;
        x[i] = product as u64;
        carry = product >> 64;
        i += 1;
    }
    x
}

/// `⌊x / 5⌋`.
const fn over5(mut x: Big) -> Big {
    let mut rest = 0;
    let mut i = x.len();
    while i > 0 {
        i -= 1;
        let current = rest << 64 | x[i] as u128;
        x[i] = (current / 5) as u64;
        rest = current % 5;
    }
    x
}

const fn pow5_table() -> [u128; POW5_LEN] {
    let mut table = [0; POW5_LEN];
    let mut power: Big = [0; 13];
    power[0] = 1;
    let mut i = 0;
    while i < POW5_LEN {
        let bits = bit_len(&power);
        table[i] = if bits <= POW5_BITS {
            shr(&power, 0) << (POW5_BITS - bits)
        } else {
            shr(&power, bits - POW5_BITS)
        };
        power = times5(power);
        i += 1;
    }
    table
}

const fn pow5_inv_table() -> [u128; POW5_INV_LEN] {
    let mut table = [0; POW5_INV_LEN];
    // `power` is 5^q and `quotient` ⌊2^INV_SHIFT / 5^q⌋, so shifting the
    // quotient right gives ⌊2^s / 5^q⌋ for every s ≤ INV_SHIFT.
    let mut power: Big = [0; 13];
    power[0] = 1;
    let mut quotient: Big = [0; 13];
    quotient[(INV_SHIFT / 64) as usize] = 1 << (INV_SHIFT % 64);
    let mut q = 0;
    while q < POW5_INV_LEN {
        let shift = bit_len(&power) - 1 + POW5_BITS;
        table[q] = shr(&quotient, INV_SHIFT - shift) + 1;
        power = times5(power);
        quotient = over5(quotient);
        q += 1;
    }
    table
}

/// `bits(5^e)`, for `e ≤ 3528`.
fn pow5_bits(e: u32) -> u32 {
    ((e * 1_217_359) >> 19) + 1
}

/// `⌊log10(2^e)⌋`, for `e ≤ 1650`.
fn log10_pow2(e: u32) -> u32 {
    (e * 78_913) >> 18
}

/// `⌊log10(5^e)⌋`, for `e ≤ 2620`.
fn log10_pow5(e: u32) -> u32 {
    (e * 732_923) >> 20
}

fn multiple_of_pow5(mut value: u64, p: u32) -> bool {
    let mut count = 0;
    while value % 5 == 0 && count < p {
        value /= 5;
        count += 1;
    }
    count >= p
}

/// `⌊m · mul / 2^j⌋`, for `m < 2^55`, `mul < 2^126` and `j ≥ 64`.
fn mul_shift(m: u64, mul: u128, j: u32) -> u64 {
    let low = (m as u128 * (mul as u64 as u128)) >> 64;
    let high = m as u128 * (mul >> 64);
    ((low + high) >> (j - 64)) as u64
}

/// The shortest `digits · 10^exp10` that reads back as the positive finite
/// `f64` with this IEEE mantissa field and biased exponent, and of those the
/// closest to it.
fn shortest(ieee_mantissa: u64, ieee_exponent: u32) -> (u64, i32) {
    // The value is m2 · 2^(e2 + 2); two extra bits hold the midpoints.
    let (m2, e2) = if ieee_exponent == 0 {
        (ieee_mantissa, 1 - 1023 - 52 - 2)
    } else {
        (ieee_mantissa | 1 << 52, ieee_exponent as i32 - 1023 - 52 - 2)
    };
    // A reader rounds a midpoint to the even neighbour, so the interval
    // between the midpoints includes its ends when this mantissa is even.
    let even = m2 & 1 == 0;
    // The value and the midpoints to its neighbours, in units of 2^e2. Below
    // a power of two the neighbour is half as far away as above it, except
    // at the smallest normal.
    let mv = 4 * m2;
    let mp = mv + 2;
    let mm = mv - 1 - u64::from(ieee_mantissa != 0 || ieee_exponent <= 1);

    // Scale all three by 10^-e10 and round down; `vm_exact` says the lower
    // midpoint lost nothing.
    let (e10, mut vr, mut vp, mut vm);
    let mut vm_exact = false;
    if e2 >= 0 {
        let q = log10_pow2(e2 as u32) - u32::from(e2 > 3);
        e10 = q as i32;
        let j = POW5_BITS + pow5_bits(q) - 1 + q - e2 as u32;
        let mul = POW5_INV[q as usize];
        (vr, vp, vm) = (mul_shift(mv, mul, j), mul_shift(mp, mul, j), mul_shift(mm, mul, j));
        // Scaling by 2^e2 / 10^q, q ≤ e2, is exact for a multiple of 5^q;
        // past 5^23 no midpoint is one. At most one of the three is a
        // multiple of 5.
        if q <= 23 && mv % 5 != 0 {
            if even {
                vm_exact = multiple_of_pow5(mm, q);
            } else {
                vp -= u64::from(multiple_of_pow5(mp, q));
            }
        }
    } else {
        let q = log10_pow5(-e2 as u32) - u32::from(-e2 > 1);
        e10 = q as i32 + e2;
        let i = -e2 as u32 - q;
        let j = (q as i32 - (pow5_bits(i) as i32 - POW5_BITS as i32)) as u32;
        let mul = POW5[i as usize];
        (vr, vp, vm) = (mul_shift(mv, mul, j), mul_shift(mp, mul, j), mul_shift(mm, mul, j));
        // Scaling by 5^i / 2^q is exact for a multiple of 2^q; mp has one
        // factor of two and mm at most one.
        if q <= 1 {
            if even {
                vm_exact = mm % (1 << q) == 0;
            } else {
                vp -= 1;
            }
        }
    }

    // Drop digits while the interval [vm, vp] still holds a shorter decimal.
    let mut removed = 0;
    let output = if vm_exact {
        // Rare: the lower bound is itself a candidate, and may be the
        // shortest one if every digit dropped from it is a zero.
        let mut vm_zeros = true;
        let mut last = 0;
        while vp / 10 > vm / 10 {
            vm_zeros &= vm % 10 == 0;
            last = vr % 10;
            (vr, vp, vm) = (vr / 10, vp / 10, vm / 10);
            removed += 1;
        }
        if vm_zeros {
            while vm % 10 == 0 {
                last = vr % 10;
                (vr, vp, vm) = (vr / 10, vp / 10, vm / 10);
                removed += 1;
            }
        }
        vr + u64::from((vr == vm && !vm_zeros) || last >= 5)
    } else {
        let mut round_up = false;
        if vp / 100 > vm / 100 {
            round_up = vr % 100 >= 50;
            (vr, vp, vm) = (vr / 100, vp / 100, vm / 100);
            removed += 2;
        }
        while vp / 10 > vm / 10 {
            round_up = vr % 10 >= 5;
            (vr, vp, vm) = (vr / 10, vp / 10, vm / 10);
            removed += 1;
        }
        vr + u64::from(vr == vm || round_up)
    };
    (output, e10 + removed)
}

/// The number of decimal digits of `0 < value < 10^17`, counted down from
/// the most common (`ilog10` costs more).
fn decimal_len(value: u64) -> usize {
    let (mut len, mut power) = (17, 10_000_000_000_000_000);
    while value < power && len > 1 {
        len -= 1;
        power /= 10;
    }
    len
}

/// Write the eight decimal digits of `value < 10^8`, leading zeros
/// included.
fn write8(out: &mut [u8], value: u32) {
    let (high, low) = (value / 10_000, value % 10_000);
    for (at, pair) in [high / 100, high % 100, low / 100, low % 100].into_iter().enumerate() {
        let pair = 2 * pair as usize;
        out[2 * at..2 * at + 2].copy_from_slice(&DIGIT_PAIRS[pair..pair + 2]);
    }
}

/// Append the shortest spelling of the finite `value` that reads back as the
/// same `f64`, laid out as `format!("{value}")` lays it out: never an
/// exponent, `-` on negatives (`-0` too), integers without `.0`, small
/// values as `0.000ddd` and large ones padded with zeros.
pub(crate) fn push_f64(buf: &mut Vec<u8>, value: f64) {
    debug_assert!(value.is_finite(), "{value} has no decimal spelling");
    if value.is_sign_negative() {
        buf.push(b'-');
    }
    let bits = value.to_bits();
    let (mantissa, exponent) = (bits & ((1 << 52) - 1), (bits >> 52) as u32 & 0x7ff);
    if mantissa == 0 && exponent == 0 {
        buf.push(b'0');
        return;
    }
    let (digits, exp10) = shortest(mantissa, exponent);

    // At most 17 digits, right-aligned in `text[start..]`, with room on their
    // left to move the integer part one place over for the point.
    const EIGHT: u64 = 100_000_000;
    debug_assert!(digits < 10 * EIGHT * EIGHT, "{digits} has more than 17 digits");
    let mut text = [0u8; 24];
    text[7] = b'0' + (digits / (EIGHT * EIGHT)) as u8;
    write8(&mut text[8..16], (digits / EIGHT % EIGHT) as u32);
    write8(&mut text[16..24], (digits % EIGHT) as u32);
    let len = decimal_len(digits);
    let start = text.len() - len;
    // Digits before the decimal point.
    let point = len as isize + exp10 as isize;
    if point <= 0 {
        buf.extend_from_slice(b"0.");
        buf.resize(buf.len() + point.unsigned_abs(), b'0');
        buf.extend_from_slice(&text[start..]);
    } else if point as usize >= len {
        buf.extend_from_slice(&text[start..]);
        buf.resize(buf.len() + point as usize - len, b'0');
    } else {
        let point = point as usize;
        for at in start..start + point {
            text[at - 1] = text[at];
        }
        text[start + point - 1] = b'.';
        buf.extend_from_slice(&text[start - 1..]);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn spell(value: f64) -> String {
        let mut buf = b"<".to_vec();
        push_f64(&mut buf, value);
        String::from_utf8(buf).expect("the spelling is ASCII")
    }

    /// `value` and its negation spell as `std` spells them.
    fn assert_std(value: f64) {
        for value in [value, -value] {
            assert_eq!(spell(value), format!("<{value}"), "bits {:#018x}", value.to_bits());
        }
    }

    /// `value` and its neighbours one ulp either side.
    fn assert_std_around(value: f64) {
        let bits = value.to_bits();
        for bits in [bits.saturating_sub(1), bits, bits + 1] {
            let value = f64::from_bits(bits);
            if value.is_finite() {
                assert_std(value);
            }
        }
    }

    /// Test-only arbitrary precision: little-endian 32-bit limbs, a different
    /// limb size and different algorithms from the tables' `const fn`s.
    fn big_pow5(i: usize) -> Vec<u32> {
        let mut x = vec![1u32];
        for _ in 0..i {
            let mut carry = 0u64;
            for limb in x.iter_mut() {
                let product = u64::from(*limb) * 5 + carry;
                *limb = product as u32;
                carry = product >> 32;
            }
            if carry != 0 {
                x.push(carry as u32);
            }
        }
        x
    }

    fn big_bits(x: &[u32]) -> u32 {
        let top = x.iter().rposition(|&limb| limb != 0).expect("non-zero");
        32 * top as u32 + 32 - x[top].leading_zeros()
    }

    fn big_bit(x: &[u32], bit: u32) -> bool {
        x.get(bit as usize / 32).is_some_and(|limb| limb >> (bit % 32) & 1 == 1)
    }

    fn big_ge(a: &[u32], b: &[u32]) -> bool {
        let len = a.len().max(b.len());
        for i in (0..len).rev() {
            let (x, y) = (a.get(i).copied().unwrap_or(0), b.get(i).copied().unwrap_or(0));
            if x != y {
                return x > y;
            }
        }
        true
    }

    fn big_sub(a: &mut [u32], b: &[u32]) {
        let mut borrow = 0i64;
        for (i, limb) in a.iter_mut().enumerate() {
            let d = i64::from(*limb) - i64::from(b.get(i).copied().unwrap_or(0)) - borrow;
            *limb = d.rem_euclid(1 << 32) as u32;
            borrow = i64::from(d < 0);
        }
        assert_eq!(borrow, 0);
    }

    /// `⌊2^shift / divisor⌋`, bit by bit, when it is below `2^128`.
    fn big_pow2_over(shift: u32, divisor: &[u32]) -> u128 {
        let mut rest = vec![0u32; divisor.len() + 1];
        let mut quotient = 0u128;
        for bit in (0..=shift).rev() {
            // rest = 2 · rest + (the bit of 2^shift at `bit`)
            let mut carry = u32::from(bit == shift);
            for limb in rest.iter_mut() {
                let next = *limb >> 31;
                *limb = *limb << 1 | carry;
                carry = next;
            }
            assert_eq!(carry, 0);
            if big_ge(&rest, divisor) {
                big_sub(&mut rest, divisor);
                assert!(bit < 128, "the quotient fits 128 bits");
                quotient |= 1 << bit;
            }
        }
        quotient
    }

    /// Bits `shift .. shift + 128` of `x`, one at a time.
    fn big_bits_from(x: &[u32], shift: u32) -> u128 {
        (0..128).filter(|&bit| big_bit(x, shift + bit)).fold(0, |out, bit| out | 1 << bit)
    }

    #[test]
    fn tables_match_an_independent_derivation() {
        for (i, &entry) in POW5.iter().enumerate() {
            let power = big_pow5(i);
            let bits = big_bits(&power);
            assert_eq!(pow5_bits(i as u32), bits, "bits(5^{i})");
            let expected = if bits <= POW5_BITS {
                big_bits_from(&power, 0) << (POW5_BITS - bits)
            } else {
                big_bits_from(&power, bits - POW5_BITS)
            };
            assert_eq!(entry, expected, "POW5[{i}]");
            assert_eq!(entry >> (POW5_BITS - 1), 1, "POW5[{i}] has {POW5_BITS} bits");
        }
        for (q, &entry) in POW5_INV.iter().enumerate() {
            let power = big_pow5(q);
            let expected = big_pow2_over(big_bits(&power) - 1 + POW5_BITS, &power) + 1;
            assert_eq!(entry, expected, "POW5_INV[{q}]");
        }
        // The largest index each table serves: the smallest and largest
        // binary exponents of a finite f64.
        let e2_min = 1 - 1023 - 52 - 2i32;
        assert_eq!((-e2_min) as u32 - (log10_pow5(-e2_min as u32) - 1), POW5_LEN as u32 - 1);
        assert_eq!(log10_pow2(2046 - 1023 - 52 - 2) - 1, POW5_INV_LEN as u32 - 1);
    }

    #[test]
    fn logarithm_shortcuts_are_exact_over_every_exponent() {
        // ⌊log10(2^e)⌋ and ⌊log10(5^e)⌋ are the digit counts of 2^e and 5^e,
        // less one.
        let digits = |x: &[u32]| {
            let mut decimal = vec![0u8];
            for bit in (0..big_bits(x)).rev() {
                let mut carry = u8::from(big_bit(x, bit));
                for digit in decimal.iter_mut() {
                    let doubled = *digit * 2 + carry;
                    *digit = doubled % 10;
                    carry = doubled / 10;
                }
                if carry != 0 {
                    decimal.push(carry);
                }
            }
            decimal.len() as u32
        };
        for e in 0..=1076u32 {
            let mut two = vec![0u32; e as usize / 32 + 1];
            two[e as usize / 32] = 1 << (e % 32);
            assert_eq!(log10_pow2(e), digits(&two) - 1, "log10(2^{e})");
            if e < 400 {
                assert_eq!(log10_pow5(e), digits(&big_pow5(e as usize)) - 1, "log10(5^{e})");
            }
        }
    }

    #[test]
    fn spells_edge_values_like_std() {
        for value in [0.0, 5e-324, f64::from_bits((1 << 52) - 1), f64::MIN_POSITIVE, f64::MAX] {
            assert_std_around(value);
        }
        // Every power of two: its lower neighbour is half as far as its
        // upper one.
        for e in -1074..=1023 {
            let bits = if e < -1022 { 1 << (e + 1074) } else { ((e + 1023) as u64) << 52 };
            assert_std_around(f64::from_bits(bits));
        }
        for k in -323..=308 {
            assert_std_around(format!("1e{k}").parse().unwrap());
        }
        for n in 0..=1000 {
            assert_std(n as f64);
        }
        let two53 = 2f64.powi(53);
        for value in [two53 - 2.0, two53 - 1.0, two53, two53 + 2.0, two53 + 4.0] {
            assert_std_around(value);
        }
        for value in [0.1, 0.2, 0.3, 1.5, 2.5, 1e23, 9.5e-5, 123456.789, 0.000123] {
            assert_std_around(value);
        }
    }

    #[test]
    fn equally_close_candidates_round_up_like_std() {
        // In [2^50, 2^51) the ulp is 1/4: `x.25` is as close to `x.2` as to
        // `x.3`, both read back, and `std` prints the larger.
        let base = 2f64.powi(50);
        for quarters in 0..64 {
            assert_std(base + f64::from(quarters) * 0.25);
        }
        assert_eq!(spell(base + 0.25), "<1125899906842624.3");
    }

    #[test]
    fn spells_seventeen_digit_values_like_std() {
        let mut rng = proptest::test_runner::TestRng::for_case("seventeen", 0);
        for _ in 0..20_000 {
            let digits = rng.next_u64() % 90_000_000_000_000_000 + 10_000_000_000_000_000;
            let exponent = (rng.next_u64() % 640) as i32 - 330;
            assert_std_around(format!("{digits}e{exponent}").parse().unwrap());
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(20_000))]

        #[test]
        fn spells_random_bit_patterns_like_std(high in 0u32..=u32::MAX, low in 0u32..=u32::MAX) {
            let value = f64::from_bits(u64::from(high) << 32 | u64::from(low));
            if value.is_finite() {
                assert_std(value);
            }
        }
    }

    /// Ten million random bit patterns; run in release.
    #[test]
    #[ignore = "slow in debug; CI runs it with --release --include-ignored"]
    fn shortest_spells_ten_million_random_bit_patterns_like_std() {
        use std::io::Write;
        let mut rng = proptest::test_runner::TestRng::for_case("ten million", 0);
        let (mut buf, mut oracle) = (Vec::new(), Vec::new());
        for _ in 0..10_000_000 {
            let value = f64::from_bits(rng.next_u64());
            if value.is_finite() {
                buf.clear();
                push_f64(&mut buf, value);
                oracle.clear();
                write!(oracle, "{value}").unwrap();
                assert_eq!(buf, oracle, "bits {:#018x}", value.to_bits());
            }
        }
    }
}
