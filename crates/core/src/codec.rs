//! The JSON codec behind the line protocol ([`crate::protocol`]): the
//! number writer, the string escaper and the reader. Hand-rolled both
//! ways, no serde, no dependencies.
//!
//! * **Numbers out.** [`push_num`] writes `null` for non-finite values
//!   (JSON has no spelling for them) and otherwise exactly the bytes
//!   `format!("{x}")` would: the shortest decimal that reads back as
//!   `x`, in plain notation (`1e-7` is `0.0000001`). Normal doubles
//!   with a binary exponent in [−120, 0] — every size, delay and ratio
//!   the service emits — go through an exact `u128` integer kernel
//!   with no allocation; the rest fall back to `write!`.
//! * **Numbers in.** The reader collects an array that holds only
//!   numbers straight into a `Vec<f64>` ([`Json::Nums`]) instead of one
//!   tree node per element, and parses each number from a slice of the
//!   input with `str::parse::<f64>` — lax forms such as `01`, `1.`,
//!   `-.5` and `1e400` (∞) included.
//! * **Unchanged numbers are not parsed twice.** A connection reads
//!   through one [`NumberMemo`]: the previous top-level number array it
//!   read, as text and values. A token whose bytes, and the byte after
//!   them, equal those of the same-index token of that array takes the
//!   remembered value; only the others go through `str::parse`. Equal
//!   bytes parse to equal bits, so the values, the errors and their
//!   byte offsets are those of the stateless [`parse_json`].

use std::fmt::Write as _;

/// Appends `x` as a JSON number: `null` when `x` is not finite,
/// otherwise byte for byte what `write!(s, "{x}")` appends.
pub(crate) fn push_num(s: &mut String, x: f64) {
    let mut text = [0u8; MAX_SHORT];
    match write_short(&mut text, x) {
        Some(len) => s.push_str(ascii(&text[..len])),
        None => push_slow(s, x),
    }
}

/// Appends `xs` as a JSON array of [`push_num`] numbers. The fast path
/// writes into a stack buffer that goes into `s` a few KB at a time.
pub(crate) fn push_nums(s: &mut String, xs: &[f64]) {
    const CHUNK: usize = 4096;
    let mut buf = [0u8; CHUNK];
    let mut len = 0;
    s.push('[');
    for (i, &x) in xs.iter().enumerate() {
        if len + 1 + MAX_SHORT > CHUNK {
            s.push_str(ascii(&buf[..len]));
            len = 0;
        }
        if i > 0 {
            buf[len] = b',';
            len += 1;
        }
        let tail: &mut [u8; MAX_SHORT] = (&mut buf[len..len + MAX_SHORT])
            .try_into()
            .expect("MAX_SHORT bytes");
        match write_short(tail, x) {
            Some(n) => len += n,
            None => {
                s.push_str(ascii(&buf[..len]));
                len = 0;
                push_slow(s, x);
            }
        }
    }
    s.push_str(ascii(&buf[..len]));
    s.push(']');
}

/// The bytes the writers assemble: digits, `.`, `-`, `,`.
fn ascii(bytes: &[u8]) -> &str {
    std::str::from_utf8(bytes).expect("number text is ASCII")
}

/// The numbers [`write_short`] leaves out.
fn push_slow(s: &mut String, x: f64) {
    if x.is_finite() {
        let _ = write!(s, "{x}");
    } else {
        s.push_str("null");
    }
}

/// `"00"`, `"01"`, …, `"99"`: two digits per division by 100.
const DIGIT_PAIRS: &[u8; 200] = b"\
    0001020304050607080910111213141516171819\
    2021222324252627282930313233343536373839\
    4041424344454647484950515253545556575859\
    6061626364656667686970717273747576777879\
    8081828384858687888990919293949596979899";

/// 10^k for k = 0..=22.
const POW10: [u128; 23] = {
    let mut table = [1u128; 23];
    let mut k = 1;
    while k < 23 {
        table[k] = table[k - 1] * 10;
        k += 1;
    }
    table
};

/// The longest text [`write_short`] writes: a sign, 22 fraction digits,
/// and the point and integer digit of a value below 1.
const MAX_SHORT: usize = 25;

/// The exact kernel of [`push_num`]: writes a finite normal
/// `x = ±m·2^e` with `e ∈ [−120, 0]` (so `|x| < 2^53`) at the start of
/// `out` and returns its length. Returns `None` for any other input and
/// when no decimal with at most 22 fractional digits rounds to `x`.
///
/// It looks for the smallest k ≤ 22 for which an integer lies in the
/// rounding interval of `|x|·10^k` — half an ulp each side, and a
/// quarter ulp below a power of two, whose lower neighbour is half as
/// far away — and of the two integers around `|x|·10^k` takes the
/// nearer one that lies inside, rounding up on a tie. That is the rule
/// of the standard library's shortest formatter, so the digits are the
/// same. The formatter also counts the ends of the interval as inside
/// when `m` is even; here that never matters: `x` itself has `−e`
/// fractional digits, so k ≤ −e, while an end, a binary digit finer
/// than `x`, needs at least `1 − e`.
fn write_short(out: &mut [u8; MAX_SHORT], x: f64) -> Option<usize> {
    let bits = x.to_bits();
    let biased = ((bits >> 52) & 0x7ff) as i32;
    let e = biased - 1075;
    if biased == 0 || !(-120..=0).contains(&e) {
        return None;
    }
    let m = (bits & ((1 << 52) - 1)) | (1 << 52);
    let point = e.unsigned_abs();
    // The integer part. Below 2^53 the interval of an integer holds no
    // other integer, so an integer is its own shortest text.
    let int = m.checked_shr(point).unwrap_or(0);
    if point < 53 && m & ((1 << point) - 1) == 0 {
        return Some(write_fixed(out, x < 0.0, int, 0, 0));
    }
    let interval = Interval::new(m, e);
    // An integer lies in the interval at k when one does at k − 1, and
    // none does at k = 0 (x is not an integer). The interval is an ulp
    // wide (three quarters below a power of two), 10^k·2^e: more than
    // 1 at k = guess + 1, so guess or guess + 1 is the answer for
    // nearly every x; short decimals such as 0.45 scan up from 1.
    let guess = (((point * 78_913) >> 18) as usize).min(22);
    let hit = |k: usize| Some((k, interval.digits(k)?));
    let (k, n) = match hit(guess) {
        None => (guess + 1..=22).find_map(hit)?,
        Some(found) if guess < 2 || interval.digits(guess - 1).is_none() => found,
        Some(_) => (1..guess).find_map(hit)?,
    };
    // n = int·10^k + frac, where rounding up may carry into int.
    let mut int = u128::from(int);
    let mut frac = n - int * POW10[k];
    if frac >= POW10[k] {
        int += 1;
        frac -= POW10[k];
    }
    Some(write_fixed(
        out,
        x < 0.0,
        u64::try_from(int).ok()?,
        u64::try_from(frac).ok()?,
        k,
    ))
}

/// The rounding interval of `m·2^e`: the value is `mid / 2^shift`, the
/// interval `(mid − 1, mid + 2^wide) / 2^shift`.
struct Interval {
    mid: u64,
    wide: u32,
    shift: u32,
}

impl Interval {
    fn new(m: u64, e: i32) -> Self {
        let power_of_two = m == 1 << 52;
        let wide = u32::from(power_of_two);
        Interval {
            mid: m << (1 + wide),
            wide,
            shift: (1 + wide as i32 - e) as u32,
        }
    }

    /// The integer the digits with `k` fractional digits stand for —
    /// the one in the interval scaled by 10^k nearest to the value,
    /// the larger on a tie — or `None` when no integer lies in it. The
    /// largest product, (4·2^52 + 2)·10^22, is below 2^128.
    fn digits(&self, k: usize) -> Option<u128> {
        let scale = POW10[k];
        let v = match u64::try_from(scale) {
            Ok(small) => u128::from(self.mid) * u128::from(small),
            Err(_) => u128::from(self.mid) * scale,
        };
        let one = 1u128 << self.shift;
        let below = v & (one - 1);
        let above = one - below;
        let (lo, hi) = (scale, scale << self.wide);
        let floor_in = below < lo;
        let ceil_in = below != 0 && above < hi;
        let round_up = ceil_in && (!floor_in || above <= below);
        (floor_in || ceil_in).then_some((v >> self.shift) + u128::from(round_up))
    }
}

/// Writes `±int.frac` — `frac` as exactly `digits` digits, no point
/// when `digits` is 0 — at the start of `out` and returns its length.
fn write_fixed(
    out: &mut [u8; MAX_SHORT],
    negative: bool,
    int: u64,
    frac: u64,
    digits: usize,
) -> usize {
    let mut int_digits = 1;
    while int_digits < 16 && u128::from(int) >= POW10[int_digits] {
        int_digits += 1;
    }
    let len = usize::from(negative) + int_digits + if digits > 0 { 1 + digits } else { 0 };
    let mut end = len;
    // Eight digits per u64 division, then pairs in u32 arithmetic.
    let mut rest = frac;
    let mut left = digits;
    while left > 0 {
        let run = left.min(8);
        let mut chunk = (rest % 100_000_000) as u32;
        rest /= 100_000_000;
        for _ in 0..run / 2 {
            let at = 2 * (chunk % 100) as usize;
            chunk /= 100;
            end -= 2;
            out[end..end + 2].copy_from_slice(&DIGIT_PAIRS[at..at + 2]);
        }
        if run % 2 == 1 {
            end -= 1;
            out[end] = b'0' + (chunk % 10) as u8;
        }
        left -= run;
    }
    if digits > 0 {
        end -= 1;
        out[end] = b'.';
    }
    let mut int = int;
    for _ in 0..int_digits {
        end -= 1;
        out[end] = b'0' + (int % 10) as u8;
        int /= 10;
    }
    if negative {
        out[0] = b'-';
    }
    len
}

/// Appends `raw` as a JSON string literal, escaping quotes,
/// backslashes and control characters.
pub(crate) fn push_json_string(s: &mut String, raw: &str) {
    s.push('"');
    for c in raw.chars() {
        match c {
            '"' => s.push_str("\\\""),
            '\\' => s.push_str("\\\\"),
            '\n' => s.push_str("\\n"),
            '\r' => s.push_str("\\r"),
            '\t' => s.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                let _ = write!(s, "\\u{:04x}", c as u32);
            }
            c => s.push(c),
        }
    }
    s.push('"');
}

/// A parsed JSON value.
#[derive(Debug, Clone, PartialEq)]
pub(crate) enum Json {
    Null,
    Bool(bool),
    Num(f64),
    Str(String),
    /// An array whose elements are all numbers (or no elements).
    Nums(Vec<f64>),
    /// An array holding at least one non-number.
    Arr(Vec<Json>),
    Obj(Vec<(String, Json)>),
}

impl Json {
    pub(crate) fn as_f64(&self) -> Option<f64> {
        match self {
            Json::Num(x) => Some(*x),
            _ => None,
        }
    }

    pub(crate) fn as_bool(&self) -> Option<bool> {
        match self {
            Json::Bool(b) => Some(*b),
            _ => None,
        }
    }

    pub(crate) fn as_str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s),
            _ => None,
        }
    }

    pub(crate) fn as_object_mut(&mut self) -> Option<&mut [(String, Json)]> {
        match self {
            Json::Obj(o) => Some(o),
            _ => None,
        }
    }
}

/// The deepest array/object nesting the JSON reader accepts. Requests
/// nest two levels (the request object and its arrays) and responses
/// three, so this only refuses hostile lines: the reader recurses once
/// per level, and an unbounded depth would let one line of `[`
/// overflow the connection thread's stack. A constant, not a knob.
pub(crate) const MAX_JSON_DEPTH: usize = 64;

/// Parses one JSON value spanning all of `text` (surrounding
/// whitespace allowed).
pub(crate) fn parse_json(text: &str) -> Result<Json, String> {
    parse(text, None)
}

/// The previous top-level number array a connection read: the field it
/// came under, its text from the first element through the closing `]`,
/// each token's byte span in that text and its value. It holds one
/// array's text plus 16 bytes per number.
#[derive(Debug, Default)]
pub(crate) struct NumberMemo {
    field: String,
    text: Vec<u8>,
    spans: Vec<(u32, u32)>,
    values: Vec<f64>,
    /// Top-level array tokens read and, of those, taken from the memo.
    pub(crate) tokens_read: u64,
    pub(crate) tokens_reused: u64,
}

impl NumberMemo {
    /// [`parse_json`], reusing the tokens that equal the memo's and
    /// then remembering each top-level field's number array read.
    pub(crate) fn parse(&mut self, text: &str) -> Result<Json, String> {
        parse(text, Some(self))
    }

    /// How many tokens from `i` on the array text `rest` repeats, and
    /// the bytes they span: token `j` counts when its bytes and the one
    /// after them (a separator, outside the number byte class) are the
    /// same in both, and so do all tokens between `i` and `j`.
    fn repeated(&self, i: usize, rest: &[u8]) -> (usize, usize) {
        let Some(&(start, _)) = self.spans.get(i) else {
            return (0, 0);
        };
        let start = start as usize;
        let same = start + common_prefix(rest, &self.text[start..]);
        let count = self.spans[i..]
            .iter()
            .take_while(|&&(_, end)| (end as usize) < same)
            .count();
        match count {
            0 => (0, 0),
            _ => (count, self.spans[i + count - 1].1 as usize - start),
        }
    }

    /// Remembers the number array `field` whose text is `text`.
    fn remember(&mut self, field: &str, text: &[u8], spans: Vec<(u32, u32)>, values: &[f64]) {
        self.field.clear();
        self.field.push_str(field);
        self.text.clear();
        self.text.extend_from_slice(text);
        self.spans = spans;
        self.values.clear();
        self.values.extend_from_slice(values);
    }
}

/// The length of the longest common prefix of `a` and `b`, compared
/// eight bytes at a time.
fn common_prefix(a: &[u8], b: &[u8]) -> usize {
    let n = a.len().min(b.len());
    let (a, b) = (&a[..n], &b[..n]);
    let word = |w: &[u8]| u64::from_le_bytes(w.try_into().expect("8-byte chunk"));
    let mut at = 0;
    for (x, y) in a.chunks_exact(8).zip(b.chunks_exact(8)) {
        let diff = word(x) ^ word(y);
        if diff != 0 {
            return at + (diff.trailing_zeros() / 8) as usize;
        }
        at += 8;
    }
    at + a[at..]
        .iter()
        .zip(&b[at..])
        .take_while(|(x, y)| x == y)
        .count()
}

/// The one JSON reader: with a memo, top-level number arrays reuse and
/// refresh it ([`NumberMemo::parse`]); without, it is [`parse_json`].
fn parse(text: &str, memo: Option<&mut NumberMemo>) -> Result<Json, String> {
    let mut p = JsonParser {
        text,
        bytes: text.as_bytes(),
        pos: 0,
        depth: 0,
        // Token spans are `u32`s; a longer line reads without the memo.
        memo: memo.filter(|_| u32::try_from(text.len()).is_ok()),
    };
    p.skip_ws();
    let value = p.value()?;
    p.skip_ws();
    if p.pos != p.bytes.len() {
        return Err(format!("trailing characters at byte {}", p.pos));
    }
    Ok(value)
}

struct JsonParser<'a, 'm> {
    text: &'a str,
    bytes: &'a [u8],
    pos: usize,
    /// Arrays and objects open around `pos`.
    depth: usize,
    memo: Option<&'m mut NumberMemo>,
}

impl JsonParser<'_, '_> {
    fn skip_ws(&mut self) {
        while matches!(
            self.bytes.get(self.pos),
            Some(b' ') | Some(b'\t') | Some(b'\n') | Some(b'\r')
        ) {
            self.pos += 1;
        }
    }

    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.pos).copied()
    }

    /// Whether a number starts at `pos`.
    fn at_number(&self) -> bool {
        matches!(self.peek(), Some(c) if c == b'-' || c.is_ascii_digit())
    }

    fn expect(&mut self, byte: u8) -> Result<(), String> {
        if self.peek() == Some(byte) {
            self.pos += 1;
            Ok(())
        } else {
            Err(format!("expected `{}` at byte {}", byte as char, self.pos))
        }
    }

    fn literal(&mut self, word: &str, value: Json) -> Result<Json, String> {
        if self.bytes[self.pos..].starts_with(word.as_bytes()) {
            self.pos += word.len();
            Ok(value)
        } else {
            Err(format!("invalid literal at byte {}", self.pos))
        }
    }

    fn value(&mut self) -> Result<Json, String> {
        self.field_value(None)
    }

    /// [`JsonParser::value`] of the top-level object's field `field`
    /// (`None` anywhere else).
    fn field_value(&mut self, field: Option<&str>) -> Result<Json, String> {
        match self.peek() {
            Some(open @ (b'{' | b'[')) => {
                if self.depth == MAX_JSON_DEPTH {
                    return Err(format!(
                        "nesting deeper than {MAX_JSON_DEPTH} levels at byte {}",
                        self.pos
                    ));
                }
                self.depth += 1;
                let value = if open == b'{' {
                    self.object()
                } else {
                    self.array(field)
                };
                self.depth -= 1;
                value
            }
            Some(b'"') => Ok(Json::Str(self.string()?)),
            Some(b't') => self.literal("true", Json::Bool(true)),
            Some(b'f') => self.literal("false", Json::Bool(false)),
            Some(b'n') => self.literal("null", Json::Null),
            Some(_) if self.at_number() => self.number().map(Json::Num),
            Some(c) => Err(format!("unexpected `{}` at byte {}", c as char, self.pos)),
            None => Err("unexpected end of input".into()),
        }
    }

    fn object(&mut self) -> Result<Json, String> {
        self.expect(b'{')?;
        let mut fields = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(Json::Obj(fields));
        }
        loop {
            self.skip_ws();
            let key = self.string()?;
            self.skip_ws();
            self.expect(b':')?;
            self.skip_ws();
            let value = self.field_value((self.depth == 1).then_some(key.as_str()))?;
            fields.push((key, value));
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(Json::Obj(fields));
                }
                _ => return Err(format!("expected `,` or `}}` at byte {}", self.pos)),
            }
        }
    }

    /// Reads an array: numbers go straight into a `Vec<f64>` until the
    /// first element that is not a number, which moves the elements
    /// read so far into a general [`Json::Arr`]. The array of a
    /// top-level field reads against the memo, if there is one, and
    /// becomes the memo when it holds only numbers.
    fn array(&mut self, field: Option<&str>) -> Result<Json, String> {
        if field.is_none() {
            return self.array_with(None, None);
        }
        let mut memo = self.memo.take();
        let array = self.array_with(field, memo.as_deref_mut());
        self.memo = memo;
        array
    }

    fn array_with(
        &mut self,
        field: Option<&str>,
        mut memo: Option<&mut NumberMemo>,
    ) -> Result<Json, String> {
        self.expect(b'[')?;
        let base = self.pos;
        let old = memo.as_deref().filter(|m| Some(m.field.as_str()) == field);
        let expect = old.map_or(0, |m| m.values.len());
        let mut nums = Vec::with_capacity(expect);
        let mut spans = Vec::with_capacity(expect);
        let mut reused = 0;
        self.skip_ws();
        let mut flat = self.peek() == Some(b']');
        while !flat {
            self.skip_ws();
            if !self.at_number() {
                break;
            }
            let at = self.pos;
            let i = nums.len();
            match old.map(|m| (m, m.repeated(i, &self.bytes[at..]))) {
                Some((m, (count, len))) if count > 0 => {
                    nums.extend_from_slice(&m.values[i..i + count]);
                    // The same tokens, where this line has them.
                    let shift = (at - base) as u32;
                    let from = m.spans[i].0;
                    spans.extend(
                        m.spans[i..i + count]
                            .iter()
                            .map(|&(s, e)| (s - from + shift, e - from + shift)),
                    );
                    reused += count;
                    self.pos = at + len;
                }
                _ => {
                    nums.push(self.number()?);
                    if memo.is_some() {
                        spans.push(((at - base) as u32, (self.pos - base) as u32));
                    }
                }
            }
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b']') => flat = true,
                _ => return Err(format!("expected `,` or `]` at byte {}", self.pos)),
            }
        }
        if let Some(m) = memo.as_deref_mut() {
            m.tokens_read += nums.len() as u64;
            m.tokens_reused += reused as u64;
        }
        if flat {
            self.pos += 1;
            if let (Some(m), Some(field)) = (memo, field) {
                m.remember(field, &self.bytes[base..self.pos], spans, &nums);
            }
            return Ok(Json::Nums(nums));
        }
        let mut items: Vec<Json> = nums.into_iter().map(Json::Num).collect();
        loop {
            self.skip_ws();
            items.push(self.value()?);
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b']') => {
                    self.pos += 1;
                    return Ok(Json::Arr(items));
                }
                _ => return Err(format!("expected `,` or `]` at byte {}", self.pos)),
            }
        }
    }

    /// Reads four hex digits at `at` as a code unit.
    fn hex4(&self, at: usize) -> Result<u32, String> {
        let hex = self.bytes.get(at..at + 4).ok_or("truncated \\u escape")?;
        let hex = std::str::from_utf8(hex).map_err(|_| "non-ASCII \\u escape".to_owned())?;
        u32::from_str_radix(hex, 16).map_err(|_| "bad \\u escape".to_owned())
    }

    fn string(&mut self) -> Result<String, String> {
        self.expect(b'"')?;
        let mut out = String::new();
        loop {
            match self.peek() {
                None => return Err("unterminated string".into()),
                Some(b'"') => {
                    self.pos += 1;
                    return Ok(out);
                }
                Some(b'\\') => {
                    self.pos += 1;
                    match self.peek() {
                        Some(b'"') => out.push('"'),
                        Some(b'\\') => out.push('\\'),
                        Some(b'/') => out.push('/'),
                        Some(b'n') => out.push('\n'),
                        Some(b'r') => out.push('\r'),
                        Some(b't') => out.push('\t'),
                        Some(b'b') => out.push('\u{8}'),
                        Some(b'f') => out.push('\u{c}'),
                        Some(b'u') => {
                            let code = self.hex4(self.pos + 1)?;
                            if (0xDC00..=0xDFFF).contains(&code) {
                                return Err("unpaired low surrogate in \\u escape".into());
                            }
                            if (0xD800..=0xDBFF).contains(&code) {
                                // A high surrogate must be followed by
                                // an escaped low surrogate; the pair
                                // decodes to one supplementary scalar.
                                if self.bytes.get(self.pos + 5) != Some(&b'\\')
                                    || self.bytes.get(self.pos + 6) != Some(&b'u')
                                {
                                    return Err("high surrogate not followed by \\u escape".into());
                                }
                                let low = self.hex4(self.pos + 7)?;
                                if !(0xDC00..=0xDFFF).contains(&low) {
                                    return Err("invalid low surrogate in \\u pair".into());
                                }
                                let scalar = 0x10000 + ((code - 0xD800) << 10) + (low - 0xDC00);
                                out.push(
                                    char::from_u32(scalar)
                                        .expect("surrogate pairs decode to valid scalars"),
                                );
                                self.pos += 10;
                            } else {
                                out.push(
                                    char::from_u32(code)
                                        .expect("non-surrogate BMP values are valid scalars"),
                                );
                                self.pos += 4;
                            }
                        }
                        _ => return Err(format!("bad escape at byte {}", self.pos)),
                    }
                    self.pos += 1;
                }
                Some(_) => {
                    // Copy the whole run up to the next quote or
                    // backslash at once. Both are ASCII, so the run ends
                    // on a char boundary of the input.
                    let rest = &self.bytes[self.pos..];
                    let len = rest
                        .iter()
                        .position(|&b| b == b'"' || b == b'\\')
                        .unwrap_or(rest.len());
                    out.push_str(&self.text[self.pos..self.pos + len]);
                    self.pos += len;
                }
            }
        }
    }

    /// Reads the longest run of number characters (digits, `.`, `e`,
    /// `E`, `+`, `-`) and parses it with `str::parse::<f64>`, so
    /// `01`, `1.`, `-.5` and `1e400` (∞) are read as Rust reads them.
    fn number(&mut self) -> Result<f64, String> {
        let start = self.pos;
        let rest = &self.bytes[start..];
        let sign = usize::from(rest.first() == Some(&b'-'));
        let run = rest[sign..]
            .iter()
            .take_while(|&&c| c.is_ascii_digit() || matches!(c, b'.' | b'e' | b'E' | b'+' | b'-'))
            .count();
        self.pos = start + sign + run;
        // Every byte of the run is ASCII, so both ends are char
        // boundaries of the input.
        let text = &self.text[start..self.pos];
        text.parse::<f64>()
            .map_err(|_| format!("bad number `{text}` at byte {start}"))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn num(x: f64) -> String {
        let mut s = String::new();
        push_num(&mut s, x);
        s
    }

    #[test]
    fn numbers_match_display_on_every_path() {
        for x in [
            0.0,
            -0.0,
            1.0,
            -1.5,
            0.1,
            0.3,
            1e-7,
            123.456,
            850.0,
            2.0f64.powi(52),
            2.0f64.powi(53) - 1.0,
            2.0f64.powi(53),
            1e21,
            f64::MIN_POSITIVE,
            f64::MAX,
            5e-324,
            1.0 / 3.0,
            2.0f64.powi(-68),
            0.999_999_999_999_999_9,
        ] {
            assert_eq!(num(x), format!("{x}"), "{x:?}");
            assert_eq!(num(-x), format!("{}", -x), "{:?}", -x);
        }
        assert_eq!(num(f64::NAN), "null");
        assert_eq!(num(f64::INFINITY), "null");
        assert_eq!(num(f64::NEG_INFINITY), "null");
        assert_eq!(num(1e-7), "0.0000001");
        let mut s = String::new();
        push_nums(&mut s, &[1.5, f64::NAN, 2.0]);
        assert_eq!(s, "[1.5,null,2]");
    }

    #[test]
    fn numbers_match_display_around_powers_of_two_and_ten() {
        for k in -70..=53 {
            let p = 2.0f64.powi(k);
            let mut x = p;
            let mut y = p;
            for _ in 0..3 {
                assert_eq!(num(x), format!("{x}"), "{x:?}");
                assert_eq!(num(y), format!("{y}"), "{y:?}");
                x = f64::from_bits(x.to_bits() + 1);
                y = f64::from_bits(y.to_bits() - 1);
            }
        }
        for k in -30..=30 {
            let p: f64 = format!("1e{k}").parse().unwrap();
            for d in -2i64..=2 {
                let x = f64::from_bits((p.to_bits() as i64 + d) as u64);
                assert_eq!(num(x), format!("{x}"), "{x:?}");
            }
        }
    }

    #[test]
    fn number_arrays_collect_flat_and_fall_back_on_other_elements() {
        assert_eq!(
            parse_json("[1, -0, 2.5e1,01,1.,-.5]").unwrap(),
            Json::Nums(vec![1.0, -0.0, 25.0, 1.0, 1.0, -0.5])
        );
        assert_eq!(parse_json("[ ]").unwrap(), Json::Nums(vec![]));
        assert_eq!(
            parse_json("[1e400]").unwrap(),
            Json::Nums(vec![f64::INFINITY])
        );
        assert_eq!(
            parse_json("[1,\"a\",[2]]").unwrap(),
            Json::Arr(vec![
                Json::Num(1.0),
                Json::Str("a".into()),
                Json::Nums(vec![2.0])
            ])
        );
        for bad in ["[1,]", "[1 2]", "[1,-]", "[1e]", "[", "[1"] {
            assert!(parse_json(bad).is_err(), "{bad}");
        }
        assert_eq!(
            parse_json("[1,2,]").unwrap_err(),
            "unexpected `]` at byte 5"
        );
        assert_eq!(
            parse_json("[1,2-3]").unwrap_err(),
            "bad number `2-3` at byte 3"
        );
    }

    #[test]
    fn common_prefixes_end_at_the_first_differing_byte() {
        let a = b"0123456789abcdefghijklmnopqrstuvwxyz";
        for len in 0..=a.len() {
            assert_eq!(common_prefix(&a[..len], a), len);
            for at in 0..len {
                let mut b = a[..len].to_vec();
                b[at] ^= 0x40;
                assert_eq!(common_prefix(a, &b), at, "len {len}, at {at}");
            }
        }
    }

    #[test]
    fn the_memo_reuses_tokens_that_read_the_same_and_parses_the_rest() {
        let mut memo = NumberMemo::default();
        let mut read = |line: &str| {
            let got = memo.parse(line);
            assert_eq!(
                format!("{got:?}"),
                format!("{:?}", parse_json(line)),
                "{line}"
            );
            (memo.tokens_read, memo.tokens_reused)
        };
        assert_eq!(read(r#"{"s":[1.5, 2,1e5 ,0,7]}"#), (5, 0));
        // Lengthened, shortened and re-spelled tokens are parsed again.
        assert_eq!(read(r#"{"s":[1.55, 2.0,1e50,-0,7]}"#), (10, 1));
        assert_eq!(read(r#"{"s":[1.55, 2.0,1e50,-0,7]}"#), (15, 6));
        // So is a token followed by other whitespace.
        assert_eq!(read(r#"{"s":[1.55, 2.0 ,1e50,-0,7]}"#), (20, 10));
        // Another field does not match the memo, and replaces it.
        assert_eq!(read(r#"{"t":[1.55, 2.0]}"#), (22, 10));
        // Growing re-reads the old last token: a `]` followed it.
        assert_eq!(read(r#"{"t":[1.55, 2.0, 3]}"#), (25, 11));
        assert_eq!(read(r#"{"t":[1.55, 2.0]}"#), (27, 12));
        // Nested and non-top-level arrays leave the memo alone, and so
        // does an array that is not all numbers.
        assert_eq!(read(r#"{"t":[[1.55]],"u":{"t":[1.55]}}"#), (27, 12));
        assert_eq!(read(r#"{"t":[1.55,"x"]}"#), (28, 13));
        assert_eq!(read(r#"{"t":[1.55, 2.0]}"#), (30, 15));
        // Errors and their offsets are the stateless reader's.
        read(r#"{"t":[1.55, 2.0-]}"#);
        read(r#"{"t":[1.55, 2"#);
        read(r#"{"t":[1.55, 2.0"#);
        assert_eq!(read(r#"{"t":[1.55, 2.0]}"#), (32, 17));
    }

    #[test]
    fn string_escapes_survive_both_directions() {
        let message = "a \"quoted\"\\ line\nwith\tcontrol \u{1} bytes";
        let mut line = String::new();
        push_json_string(&mut line, message);
        assert_eq!(parse_json(&line).unwrap(), Json::Str(message.into()));
    }

    #[test]
    fn unicode_escapes_decode() {
        // Literal multibyte characters pass through…
        let v = parse_json("\"Aé\"").unwrap();
        assert_eq!(v, Json::Str("Aé".to_owned()));
        // …and \u escapes decode to the same scalar.
        let v = parse_json("\"A\\u00e9\"").unwrap();
        assert_eq!(v, Json::Str("Aé".to_owned()));
        // Surrogate pairs decode to one supplementary scalar (what
        // ensure_ascii serializers emit for non-BMP characters).
        let v = parse_json("\"\\ud83d\\ude00\"").unwrap();
        assert_eq!(v, Json::Str("😀".to_owned()));
        // Broken pairs are rejected, not mis-decoded.
        for bad in [
            "\"\\ud83d\"",
            "\"\\ud83dx\"",
            "\"\\ude00\"",
            "\"\\ud83d\\u0041\"",
        ] {
            assert!(parse_json(bad).is_err(), "{bad}");
        }
    }

    #[test]
    fn multibyte_runs_around_escapes_decode_exactly() {
        // Multi-byte runs directly before and after escapes.
        let v = parse_json(r#""héllo\"wörld\\ñ\n日本\t語""#).unwrap();
        assert_eq!(v, Json::Str("héllo\"wörld\\ñ\n日本\t語".to_owned()));
        // A surrogate pair in the middle of literal runs.
        let v = parse_json(r#""αβ😀γδ😀ε""#).unwrap();
        assert_eq!(v, Json::Str("αβ😀γδ😀ε".to_owned()));
        // A run that is the whole string, and an empty one.
        assert_eq!(parse_json("\"ünï\"").unwrap(), Json::Str("ünï".into()));
        assert_eq!(parse_json("\"\"").unwrap(), Json::Str(String::new()));
    }

    #[test]
    fn unterminated_strings_are_rejected() {
        for bad in ["\"abc", "\"日本", "\"abc\\\"", "\"a\\", "{\"type\":\"siz"] {
            assert!(parse_json(bad).is_err(), "{bad}");
        }
    }

    #[test]
    fn long_strings_decode_in_linear_time() {
        // ~2 MB of mixed ASCII and multi-byte text with an escape every
        // few KB. The old per-character decode re-validated the rest of
        // the line for every character: quadratic, minutes at this size.
        let chunk = "abcdefghij→ünï".repeat(200);
        let mut text = String::from("\"");
        let mut want = String::new();
        while text.len() < 2_000_000 {
            text.push_str(&chunk);
            text.push_str("\\n");
            want.push_str(&chunk);
            want.push('\n');
        }
        text.push('"');
        let started = std::time::Instant::now();
        let v = parse_json(&text).unwrap();
        let took = started.elapsed();
        assert_eq!(v, Json::Str(want));
        assert!(took.as_secs_f64() < 5.0, "2 MB string took {took:?}");
    }
}
