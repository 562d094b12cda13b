//! The single-pass CSV record reader behind
//! [`Dataset::read_csv_validated`](crate::Dataset::read_csv_validated).
//!
//! Records are read in one streaming pass over the reader's buffer, with
//! no whole-file read. Each run of complete lines is checked for ASCII
//! once; on an ASCII run a fused scanner finds each `,`/`\n` terminator
//! while it accumulates digits and converts `-?d+(.d+)?` fields to
//! exactly the bits `str::parse::<f64>` gives ([`scan_f64`]). Every line
//! the scanner does not take — non-ASCII, `\r`, blank or padded lines,
//! exponents, `inf`/`NaN`, extra or missing fields, more than 19
//! significant or 22 fraction digits — goes through the per-line
//! `lines()` logic ([`Records::line`]), so rects, reports and errors
//! (line, field, text and precedence) are those of a `BufRead::lines`
//! loop. DESIGN.md §9.1 gives the exactness argument.

use crate::DatasetError;
use sj_geo::{apply_policy, Extent, Rect, Validated, ValidationPolicy, ValidationReport};
use std::io::{self, BufRead};

/// Field names of one CSV record, in column order.
const CSV_FIELDS: [&str; 4] = ["xlo", "ylo", "xhi", "yhi"];

/// Most significant digits a scanned field may carry: `10^19 - 1 < 2^64`,
/// so the mantissa accumulates in a `u64` without overflow.
const MAX_DIGITS: usize = 19;

/// Most fraction digits a scanned field may carry: `10^22` is the largest
/// power of ten an `f64` holds exactly.
const MAX_FRAC_DIGITS: usize = 22;

/// `10^k` as `f64` for `k <= 22`; every entry is exact.
const POW10_F64: [f64; MAX_FRAC_DIGITS + 1] = [
    1e0, 1e1, 1e2, 1e3, 1e4, 1e5, 1e6, 1e7, 1e8, 1e9, 1e10, 1e11, 1e12, 1e13, 1e14, 1e15, 1e16,
    1e17, 1e18, 1e19, 1e20, 1e21, 1e22,
];

/// `10^k` as `u128` for `k <= 22`.
const POW10_U128: [u128; MAX_FRAC_DIGITS + 1] = {
    let mut table = [1u128; MAX_FRAC_DIGITS + 1];
    let mut k = 1;
    while k <= MAX_FRAC_DIGITS {
        table[k] = table[k - 1] * 10;
        k += 1;
    }
    table
};

/// Parses the four corner fields of one CSV record, naming the offending
/// field on failure. Extra trailing fields are ignored for compatibility
/// with annotated exports.
fn parse_csv_fields(lineno: usize, line: &str) -> Result<(f64, f64, f64, f64), DatasetError> {
    let mut parts = line.split(',');
    let mut vals = [0.0f64; 4];
    for (i, field) in CSV_FIELDS.iter().enumerate() {
        let raw = parts.next().ok_or_else(|| DatasetError::Parse {
            line: lineno,
            field,
            detail: "missing field (expected 4 comma-separated values)".to_string(),
        })?;
        vals[i] = raw.trim().parse::<f64>().map_err(|e| DatasetError::Parse {
            line: lineno,
            field,
            detail: format!("{e} (got {:?})", raw.trim()),
        })?;
    }
    Ok((vals[0], vals[1], vals[2], vals[3]))
}

/// The error `BufRead::lines` reports for a line that is not UTF-8.
fn invalid_utf8() -> DatasetError {
    DatasetError::Io(io::Error::new(
        io::ErrorKind::InvalidData,
        "stream did not contain valid UTF-8",
    ))
}

/// Reads every record of `r` under `policy`, in line order.
///
/// # Errors
/// The first failing line's [`DatasetError::Parse`],
/// [`DatasetError::Invalid`] or UTF-8 [`DatasetError::Io`], or the
/// reader's own I/O error.
pub(crate) fn read_records<R: BufRead>(
    mut r: R,
    policy: ValidationPolicy,
    extent: Option<&Extent>,
) -> Result<(Vec<Rect>, ValidationReport), DatasetError> {
    let mut records = Records {
        policy,
        extent,
        rects: Vec::new(),
        report: ValidationReport::default(),
        lineno: 0,
    };
    // The unterminated tail of the last buffer: a line that straddles
    // buffer boundaries is completed here before it is scanned.
    let mut carry: Vec<u8> = Vec::new();
    loop {
        let buf = match r.fill_buf() {
            Ok(buf) => buf,
            Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
            Err(e) => return Err(e.into()),
        };
        if buf.is_empty() {
            break;
        }
        let len = buf.len();
        if let Some(last) = buf.iter().rposition(|&b| b == b'\n') {
            let mut start = 0;
            if !carry.is_empty() {
                let first = buf.iter().position(|&b| b == b'\n').unwrap_or(last);
                carry.extend_from_slice(&buf[..=first]);
                records.lines(&carry)?;
                carry.clear();
                start = first + 1;
            }
            records.lines(&buf[start..=last])?;
            carry.extend_from_slice(&buf[last + 1..]);
        } else {
            carry.extend_from_slice(buf);
        }
        r.consume(len);
    }
    records.lines(&carry)?;
    Ok((records.rects, records.report))
}

/// Validated records so far, and the number of the line last started.
struct Records<'a> {
    policy: ValidationPolicy,
    extent: Option<&'a Extent>,
    rects: Vec<Rect>,
    report: ValidationReport,
    lineno: usize,
}

impl Records<'_> {
    /// Takes a run of complete lines: each ends in `\n`, except a final
    /// line at the end of input.
    fn lines(&mut self, run: &[u8]) -> Result<(), DatasetError> {
        let ascii = run.is_ascii();
        let mut pos = 0;
        while pos < run.len() {
            self.lineno += 1;
            if ascii {
                if let Some((raw, next)) = scan_record(run, pos) {
                    self.push(raw)?;
                    pos = next;
                    continue;
                }
            }
            let end = run[pos..]
                .iter()
                .position(|&b| b == b'\n')
                .map_or(run.len(), |i| pos + i);
            self.line(&run[pos..end])?;
            pos = end + 1;
        }
        Ok(())
    }

    /// The `lines()` logic for one line without its `\n`: it must be
    /// UTF-8, blank lines are skipped and fields are trimmed before
    /// parsing. The `\r` of a `\r\n` ending, which `lines()` drops, is
    /// kept: it is whitespace, so every trimmed use reads the same.
    fn line(&mut self, line: &[u8]) -> Result<(), DatasetError> {
        let line = std::str::from_utf8(line).map_err(|_| invalid_utf8())?;
        if line.trim().is_empty() {
            return Ok(());
        }
        let raw = parse_csv_fields(self.lineno, line)?;
        self.push(raw)
    }

    /// Validates one parsed record under the policy.
    fn push(&mut self, raw: (f64, f64, f64, f64)) -> Result<(), DatasetError> {
        self.report.checked += 1;
        match apply_policy(self.policy, raw, self.extent) {
            Ok(Validated::Accepted(rect)) => {
                self.report.accepted += 1;
                self.rects.push(rect);
            }
            Ok(Validated::Repaired(rect)) => {
                self.report.repaired += 1;
                self.rects.push(rect);
            }
            Ok(Validated::Skipped(_)) => self.report.skipped += 1,
            Err(issue) => {
                return Err(DatasetError::Invalid {
                    line: self.lineno,
                    issue,
                })
            }
        }
        Ok(())
    }
}

/// Scans one `F,F,F,F` record starting at `pos`, where each `F` is
/// taken by [`scan_f64`] and the record ends in `\n` or at the end of
/// `s`. Returns the four values and the position after the record, or
/// `None` for any other line.
fn scan_record(s: &[u8], pos: usize) -> Option<((f64, f64, f64, f64), usize)> {
    let (xlo, p) = scan_f64(s, pos)?;
    let p = expect_byte(s, p, b',')?;
    let (ylo, p) = scan_f64(s, p)?;
    let p = expect_byte(s, p, b',')?;
    let (xhi, p) = scan_f64(s, p)?;
    let p = expect_byte(s, p, b',')?;
    let (yhi, p) = scan_f64(s, p)?;
    let next = match s.get(p) {
        None => p,
        Some(b'\n') => p + 1,
        Some(_) => return None,
    };
    Some(((xlo, ylo, xhi, yhi), next))
}

/// The position after `s[p]` when it is `b`.
fn expect_byte(s: &[u8], p: usize, b: u8) -> Option<usize> {
    (s.get(p) == Some(&b)).then_some(p + 1)
}

/// Scans one `-?d+(.d+)?` number starting at `pos`, with at most 19
/// significant digits (leading zeros are not counted) and at most 22
/// fraction digits. Returns exactly the value `str::parse::<f64>` gives
/// for that text, and the position of the first byte after it; `None`
/// when the text at `pos` does not have that form.
fn scan_f64(s: &[u8], pos: usize) -> Option<(f64, usize)> {
    let neg = s.get(pos) == Some(&b'-');
    let int_start = pos + usize::from(neg);
    let mut m = 0u64;
    let sig_start = skip_zeros(s, int_start);
    // Integer parts are short (`0.` in most preset fields): one byte at a
    // time is faster here than a failed eight-byte probe.
    let mut p = digits_bytewise(s, sig_start, &mut m);
    if p == int_start {
        return None;
    }
    let mut significant = p - sig_start;
    let mut frac = 0;
    if s.get(p) == Some(&b'.') {
        let frac_start = p + 1;
        // Zeros before the first nonzero digit are not significant.
        let sig_start = if m == 0 {
            skip_zeros(s, frac_start)
        } else {
            frac_start
        };
        p = digits(s, sig_start, &mut m);
        significant += p - sig_start;
        frac = p - frac_start;
        if frac == 0 {
            return None;
        }
    }
    // Past these caps `m` may have wrapped; the caller falls back.
    if significant > MAX_DIGITS || frac > MAX_FRAC_DIGITS {
        return None;
    }
    let v = decimal_to_f64(m, frac);
    Some((if neg { -v } else { v }, p))
}

/// The position of the first byte at or after `p` that is not `0`.
fn skip_zeros(s: &[u8], mut p: usize) -> usize {
    while s.get(p) == Some(&b'0') {
        p += 1;
    }
    p
}

/// Appends the decimal digits at `s[p..]` to `m`, eight at a time while
/// eight are available, and returns the position after the last one.
/// Wraps on overflow: callers bound the digit count afterwards.
fn digits(s: &[u8], mut p: usize, m: &mut u64) -> usize {
    const ONES: u64 = 0x0101_0101_0101_0101;
    while let Some(chunk) = s.get(p..).and_then(<[u8]>::first_chunk::<8>) {
        let v = u64::from_le_bytes(*chunk);
        // Every byte is in 0x30..=0x39: its high nibble is 3, and still
        // is after adding 6.
        let high = v & (0xF0 * ONES);
        let high_plus_6 = v.wrapping_add(6 * ONES) & (0xF0 * ONES);
        if high != 0x30 * ONES || high_plus_6 != 0x30 * ONES {
            break;
        }
        *m = m
            .wrapping_mul(100_000_000)
            .wrapping_add(eight_digits(v - 0x30 * ONES));
        p += 8;
    }
    digits_bytewise(s, p, m)
}

/// [`digits`] one byte at a time.
fn digits_bytewise(s: &[u8], mut p: usize, m: &mut u64) -> usize {
    while let Some(&c) = s.get(p) {
        let d = c.wrapping_sub(b'0');
        if d > 9 {
            break;
        }
        *m = m.wrapping_mul(10).wrapping_add(u64::from(d));
        p += 1;
    }
    p
}

/// The value of eight decimal digits, one per byte with the first digit
/// in the lowest byte: pairs, then quads, then the octet are combined
/// with one multiply each.
fn eight_digits(v: u64) -> u64 {
    const LOW_BYTES: u64 = 0x0000_00FF_0000_00FF;
    let pairs = v * 10 + (v >> 8);
    let hi = (pairs & LOW_BYTES).wrapping_mul(100 + (1_000_000 << 32));
    let lo = ((pairs >> 16) & LOW_BYTES).wrapping_mul(1 + (10_000 << 32));
    hi.wrapping_add(lo) >> 32
}

/// The `f64` nearest to `m / 10^k` (ties to even), for `k <= 22`.
///
/// For `m <= 2^53` both operands are exact `f64`s and one IEEE division
/// rounds the exact quotient once (Clinger's fast path). Above that the
/// quotient is computed exactly in `u128` and rounded by hand.
fn decimal_to_f64(m: u64, k: usize) -> f64 {
    if m <= 1 << 53 {
        #[allow(clippy::cast_precision_loss)] // m <= 2^53 is exact
        return m as f64 / POW10_F64[k];
    }
    // Shift m so bit 127 of n is set. With d = 10^k < 2^74 the quotient
    // q = floor(n / d) then has at least 54 bits: 53 for the mantissa
    // plus a rounding bit, with the remainder as the sticky bit.
    let shift = 64 + m.leading_zeros();
    let n = u128::from(m) << shift;
    let d = POW10_U128[k];
    let (q, rem) = (n / d, n % d);
    let drop = (128 - q.leading_zeros()) - 53;
    let low = q & ((1u128 << drop) - 1);
    let half = 1u128 << (drop - 1);
    #[allow(clippy::cast_possible_truncation)] // q >> drop has 53 bits
    let mut mant = (q >> drop) as u64;
    if low > half || (low == half && (rem != 0 || mant & 1 == 1)) {
        mant += 1;
    }
    // value = mant · 2^(drop - shift) with drop in [1, 75] and shift in
    // [64, 74]: the power of two is a normal f64 and the product is exact.
    let biased = 1023 + drop - shift;
    let scale = f64::from_bits(u64::from(biased) << 52);
    #[allow(clippy::cast_precision_loss)] // mant <= 2^53 is exact
    let mant = mant as f64;
    mant * scale
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{presets, Dataset};
    use rand::{Rng, RngExt, SeedableRng};
    use std::fmt::Write as _;

    /// The reader before the single-pass rewrite, kept as the oracle: a
    /// `BufRead::lines` loop over [`parse_csv_fields`].
    fn reference_read<R: BufRead>(
        r: R,
        policy: ValidationPolicy,
        extent: Option<Extent>,
    ) -> Result<(Dataset, ValidationReport), DatasetError> {
        let mut rects = Vec::new();
        let mut report = ValidationReport::default();
        for (i, line) in r.lines().enumerate() {
            let line = line?;
            if line.trim().is_empty() {
                continue;
            }
            let lineno = i + 1;
            let raw = parse_csv_fields(lineno, &line)?;
            report.checked += 1;
            match apply_policy(policy, raw, extent.as_ref()) {
                Ok(Validated::Accepted(rect)) => {
                    report.accepted += 1;
                    rects.push(rect);
                }
                Ok(Validated::Repaired(rect)) => {
                    report.repaired += 1;
                    rects.push(rect);
                }
                Ok(Validated::Skipped(_)) => report.skipped += 1,
                Err(issue) => {
                    return Err(DatasetError::Invalid {
                        line: lineno,
                        issue,
                    })
                }
            }
        }
        if rects.is_empty() {
            return Err(DatasetError::Empty);
        }
        let extent = extent
            .or_else(|| Extent::of_rects(&rects))
            .unwrap_or_else(Extent::unit);
        Ok((Dataset::new("x", extent, rects), report))
    }

    fn rect_bits(ds: &Dataset) -> Vec<[u64; 4]> {
        ds.rects
            .iter()
            .map(|r| [r.xlo, r.ylo, r.xhi, r.yhi].map(f64::to_bits))
            .collect()
    }

    /// The reader equals the oracle on `input` under every policy, with
    /// and without a declared extent, reading from the whole slice and
    /// through small buffers that split lines across refills: the same
    /// rect bits, extent, report, or error variant and text.
    fn check_same(input: &[u8]) {
        let policies = [
            ValidationPolicy::Strict,
            ValidationPolicy::Skip,
            ValidationPolicy::Repair,
        ];
        for policy in policies {
            for extent in [None, Some(Extent::unit())] {
                let want = reference_read(input, policy, extent);
                for cap in [0, 1, 2, 3, 7, 16, 61] {
                    let got = if cap == 0 {
                        Dataset::read_csv_validated("x", input, policy, extent)
                    } else {
                        let r = io::BufReader::with_capacity(cap, input);
                        Dataset::read_csv_validated("x", r, policy, extent)
                    };
                    let ctx = format!("{policy:?} {extent:?} cap {cap}: {input:?}");
                    match (&want, &got) {
                        (Ok((a, ra)), Ok((b, rb))) => {
                            assert_eq!(rect_bits(a), rect_bits(b), "{ctx}");
                            assert_eq!(a.extent, b.extent, "{ctx}");
                            assert_eq!(ra, rb, "{ctx}");
                        }
                        (Err(a), Err(b)) => {
                            assert_eq!(
                                std::mem::discriminant(a),
                                std::mem::discriminant(b),
                                "{ctx}"
                            );
                            assert_eq!(a.to_string(), b.to_string(), "{ctx}");
                        }
                        _ => panic!("{ctx}: oracle {want:?}, reader {got:?}"),
                    }
                }
            }
        }
    }

    #[test]
    fn reader_equals_oracle_on_random_renderings() {
        let mut rng = rand::rngs::StdRng::seed_from_u64(0x0c5f_0001);
        for round in 0..60 {
            let mut input = String::new();
            for _ in 0..8 {
                let mut fields = Vec::new();
                for _ in 0..4 {
                    // Random bit patterns and unit-square values, so that
                    // some records also pass validation.
                    let x = if rng.random_bool(0.5) {
                        f64::from_bits(rng.next_u64())
                    } else {
                        rng.next_f64()
                    };
                    fields.push(match rng.random_range(0..3u8) {
                        0 => format!("{x:?}"),
                        1 => format!("{x}"),
                        _ => format!("{x:e}"),
                    });
                }
                let _ = writeln!(input, "{}", fields.join(","));
            }
            if round % 2 == 1 {
                input.pop(); // no trailing newline
            }
            check_same(input.as_bytes());
        }
    }

    #[test]
    fn reader_equals_oracle_on_edge_mantissas() {
        let mut input = String::new();
        for m in [
            (1u128 << 53) - 1,
            (1 << 53) + 1,
            (1 << 53) + 3,
            (1 << 64) - 1,
            (1 << 64) + 1,
            99_999_999_999_999_999,
            12_345_678_901_234_567_890,
        ] {
            let digits = m.to_string();
            // 17-20 digit mantissas scaled into the unit square and beyond.
            for frac in [digits.len(), digits.len() - 1, digits.len() - 3] {
                let (int, frac) = digits.split_at(digits.len() - frac);
                let int = if int.is_empty() { "0" } else { int };
                let _ = writeln!(input, "0.{digits},0.{digits},{int}.{frac},{int}.{frac}");
            }
        }
        check_same(input.as_bytes());
    }

    #[test]
    fn reader_equals_oracle_on_special_fields() {
        for line in [
            "-0,0,1,1",
            "-0.0,-0,0,0",
            "+1,0,2,1",
            ".5,0,1,1",
            "5.,0,6,1",
            "1e-7,0,1,1",
            "0,0,1E0,1",
            "inf,0,1,1",
            "-inf,0,1,1",
            "NaN,0,1,1",
            "0,nan,1,1",
            "0.5,0.5,0.1,0.9",
            "-0.5,0,0.5,0.5",
            "0,0,2,2",
        ] {
            check_same(format!("0,0,1,1\n{line}\n0.25,0.25,0.5,0.5\n").as_bytes());
            check_same(line.as_bytes());
        }
    }

    #[test]
    fn reader_equals_oracle_on_layout_variants() {
        for input in [
            " 0.5 , 0.1,0.7 ,0.9\n",
            "\t0,0,1,1\t\n",
            "0,0,1,1\r\n0.5,0.5,0.7,0.7\r\n",
            "0,0,1,1\r",
            "0,0,1,1\r\r\n",
            "\r\n0,0,1,1\n",
            "\n\n0,0,1,1\n\n",
            "   \n\t\n0,0,1,1\n \n",
            "\n \n",
            "",
            "0,0,1,1,5\n",
            "0,0,1,1,\n",
            "0,0,1\n",
            "0,0,1,1\n0,0,1\n",
            "0,,1,1\n",
            ",,,\n",
            "0,0,1,1\n,\n",
            "0,0,1,1\n0.5,0.5,0.7,0.7",
            "0,0,1,1\n0.5,0.5,0.7,",
            "0,0,1,1\n0.5,0.5,0.7",
        ] {
            check_same(input.as_bytes());
        }
    }

    #[test]
    fn reader_equals_oracle_on_encoding_and_precedence() {
        let bad_utf8 = &b"0,0,1,1\xff\n"[..];
        let nbsp = "0,0,1,1\u{a0}\n".as_bytes(); // trims to a valid record
        let accent = "0,0,1,1\u{e9}\n".as_bytes(); // a parse error
        let malformed = &b"0,0,oops,1\n"[..];
        let inverted = &b"0.9,0,0.1,1\n"[..];
        let good = &b"0.25,0.25,0.5,0.5\n"[..];
        for special in [bad_utf8, nbsp, accent] {
            for other in [malformed, inverted, good] {
                for parts in [
                    [good, special, other, good],
                    [good, other, special, good],
                    [special, good, good, other],
                ] {
                    check_same(&parts.concat());
                }
            }
        }
    }

    #[test]
    fn reader_equals_oracle_on_preset_files() {
        let mut input = Vec::new();
        for ds in [
            presets::scrc(0.005),
            presets::sura(0.005),
            presets::sp(0.005),
        ] {
            ds.write_csv(&mut input).unwrap();
        }
        check_same(&input);
    }

    /// Whether `text` has the form the scanner takes: `-?d+(.d+)?` with
    /// at most 19 significant and 22 fraction digits.
    fn scannable(text: &str) -> bool {
        let plain = text.strip_prefix('-').unwrap_or(text);
        let (int, frac) = match plain.split_once('.') {
            Some((int, frac)) => (int, Some(frac)),
            None => (plain, None),
        };
        let digits = |s: &str| !s.is_empty() && s.bytes().all(|b| b.is_ascii_digit());
        let significant = plain.replace('.', "").trim_start_matches('0').len();
        digits(int)
            && frac.is_none_or(digits)
            && significant <= 19
            && frac.map_or(0, str::len) <= 22
    }

    /// The scanner takes `text` whole exactly when it is [`scannable`],
    /// and then agrees with `str::parse::<f64>` bit for bit.
    fn check_scan(text: &str) {
        let whole = scan_f64(text.as_bytes(), 0).filter(|&(_, end)| end == text.len());
        assert_eq!(whole.is_some(), scannable(text), "{text:?}");
        if let Some((v, _)) = whole {
            let want: f64 = text.parse().unwrap();
            assert_eq!(v.to_bits(), want.to_bits(), "{text:?}");
        }
    }

    #[test]
    fn scanner_equals_parse_on_edge_mantissas() {
        // 2^53 and 2^64 neighbourhoods, with every fraction length that
        // keeps the digit count legal.
        let bases = [
            (1u128 << 53) - 1,
            1 << 53,
            (1 << 53) + 1,
            (1 << 53) + 2,
            (1 << 64) - 1,
            1 << 64,
            9_999_999_999_999_999_999,
            10_000_000_000_000_000_000,
            12_345_678_901_234_567_890,
        ];
        for base in bases {
            for delta in 0..3u128 {
                let digits = (base + delta).to_string();
                for split in 0..=digits.len() {
                    let (int, frac) = digits.split_at(split);
                    let int = if int.is_empty() { "0" } else { int };
                    for text in [int.to_string(), format!("{int}.{frac}")] {
                        if text.ends_with('.') {
                            continue;
                        }
                        check_scan(&text);
                        check_scan(&format!("-{text}"));
                    }
                }
            }
        }
        // 17-20 digit mantissas with leading zeros in the fraction.
        for text in [
            "0.00012345678901234567",
            "0.0001234567890123456789",
            "0.0000000000000000000001",
            "0.00000000000000000000001",
            "123456789012345678.9",
            "1234567890123456789.0",
            "0.5",
            "-0",
            "-0.0",
            "0",
            "00000000000000000000000000001",
        ] {
            check_scan(text);
        }
        // Exact ties between two f64s above 2^53: 2^53 + 1 and 2^53 + 3
        // are halfway cases that round to even.
        for m in [
            (1u64 << 53) + 1,
            (1 << 53) + 3,
            (1 << 54) + 2,
            (1 << 54) + 6,
        ] {
            check_scan(&m.to_string());
            check_scan(&format!("{m}.000"));
            check_scan(&format!("{m}.001"));
        }
    }

    #[test]
    fn scanner_rejects_what_it_must_not_take() {
        for text in [
            "", "-", ".5", "5.", "+1", "1e-7", "1E5", "inf", "NaN", "-inf", " 1", "1 ", "1..2",
            "--1", "0x10", "1_0",
        ] {
            check_scan(text);
        }
    }

    /// A seeded sweep of over 10^6 strings: `{:?}`, `{}` and `{:e}`
    /// renderings of random bit patterns, random digit strings of up to
    /// 24 digits with up to 24 fraction digits, and values drawn from
    /// the presets' range.
    #[test]
    fn scanner_equals_parse_on_a_seeded_sweep() {
        let mut rng = rand::rngs::StdRng::seed_from_u64(0x05ee_dc5f);
        let mut checked = 0usize;
        for _ in 0..200_000 {
            let x = f64::from_bits(rng.next_u64());
            for text in [format!("{x:?}"), format!("{x}"), format!("{x:e}")] {
                check_scan(&text);
                checked += 1;
            }
            let y = rng.next_f64() * 10f64.powi(rng.random_range(-6..6i32));
            check_scan(&format!("{y:?}"));
            checked += 1;
            let mut digit = || char::from(b'0' + rng.random_range(0..10u8));
            let mut text: String = (0..1 + checked % 12).map(|_| digit()).collect();
            let frac_len = checked % 25;
            if frac_len > 0 {
                text.push('.');
                text.extend((0..frac_len).map(|_| digit()));
            }
            check_scan(&text);
            checked += 1;
        }
        assert!(checked >= 1_000_000);
    }
}
