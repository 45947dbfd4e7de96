//! The one JSON codec behind every artifact: trace JSONL lines, metrics
//! snapshots, `.audit.json` and `.topo.json` timelines and the scenario
//! crate's `.heatmap.json` grids.
//!
//! Encoders stay hand-written (the trace encoder runs once per event
//! while tracing is on) and share only [`float`], the metadata check and
//! the [`write_envelope`] layout. Decoders go through [`parse`] and the
//! typed accessors on [`Value`], whose errors name the offending key.
//!
//! The dialect is escape-free: strings never contain `"` or `\`, so the
//! encoders never escape and the parser rejects escape sequences.
//! Numbers keep their source text, so 64-bit integers survive without a
//! round trip through `f64`.

use std::collections::BTreeMap;
use std::fmt::Write as _;

/// Parsed JSON value.
#[derive(Debug, Clone, PartialEq)]
pub enum Value {
    /// Numeric literal, kept as raw text so 64-bit integers survive
    /// without a round-trip through `f64` (which only has 53 bits).
    Number(String),
    /// String literal.
    String(String),
    /// `true` / `false`.
    Bool(bool),
    /// `null`.
    Null,
    /// Array of values.
    Array(Vec<Value>),
    /// Object as ordered key/value pairs.
    Object(Vec<(String, Value)>),
}

impl Value {
    /// An object's field, or `None` when the key is absent or the value
    /// is not an object.
    #[must_use]
    pub(crate) fn field(&self, key: &str) -> Option<&Value> {
        match self {
            Value::Object(fields) => fields.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// A required object field.
    ///
    /// # Errors
    ///
    /// Fails with `missing "key"` when the key is absent, or if the
    /// value is not an object.
    pub fn get(&self, key: &str) -> Result<&Value, String> {
        match self {
            Value::Object(_) => self.field(key).ok_or_else(|| format!("missing {key:?}")),
            other => Err(format!("expected object with {key:?}, got {other:?}")),
        }
    }

    /// Checks that the value is an object whose keys all appear in
    /// `allowed`.
    ///
    /// # Errors
    ///
    /// Fails on the first unknown key, or if the value is not an
    /// object.
    pub(crate) fn only_keys(&self, what: &str, allowed: &[&str]) -> Result<(), String> {
        match self.as_object(what)?.iter().find(|(k, _)| !allowed.contains(&k.as_str())) {
            Some((k, _)) => Err(format!("unknown {what} key {k:?}")),
            None => Ok(()),
        }
    }

    /// The value as an object's key/value pairs; `what` names the
    /// construct in the error message (as for every accessor below).
    ///
    /// # Errors
    ///
    /// Fails if the value is not an object.
    pub fn as_object(&self, what: &str) -> Result<&[(String, Value)], String> {
        match self {
            Value::Object(fields) => Ok(fields),
            other => Err(format!("{what}: expected object, got {other:?}")),
        }
    }

    /// The value as an array's items.
    ///
    /// # Errors
    ///
    /// Fails if the value is not an array.
    pub fn as_array(&self, what: &str) -> Result<&[Value], String> {
        match self {
            Value::Array(items) => Ok(items),
            other => Err(format!("{what}: expected array, got {other:?}")),
        }
    }

    /// The value as a string.
    ///
    /// # Errors
    ///
    /// Fails if the value is not a string.
    pub fn as_str(&self, what: &str) -> Result<&str, String> {
        match self {
            Value::String(s) => Ok(s),
            other => Err(format!("{what}: expected string, got {other:?}")),
        }
    }

    /// The value as a bool.
    ///
    /// # Errors
    ///
    /// Fails if the value is not `true` or `false`.
    pub fn as_bool(&self, what: &str) -> Result<bool, String> {
        match self {
            Value::Bool(b) => Ok(*b),
            other => Err(format!("{what}: expected bool, got {other:?}")),
        }
    }

    /// The value as a finite `f64` (the encoders never write anything
    /// else, see [`float`]).
    ///
    /// # Errors
    ///
    /// Fails if the value is not a number or overflows `f64`.
    pub fn as_f64(&self, what: &str) -> Result<f64, String> {
        match self {
            Value::Number(text) => text
                .parse()
                .ok()
                .filter(|x: &f64| x.is_finite())
                .ok_or_else(|| format!("{what}: expected finite number, got {text:?}")),
            other => Err(format!("{what}: expected number, got {other:?}")),
        }
    }

    /// The value as a `u64`, kept exact (no round-trip through `f64`,
    /// whose mantissa only has 53 bits).
    ///
    /// # Errors
    ///
    /// Fails if the value is not an unsigned integer literal.
    pub fn as_u64(&self, what: &str) -> Result<u64, String> {
        match self {
            Value::Number(text) => {
                text.parse().map_err(|_| format!("{what}: expected unsigned integer, got {text:?}"))
            }
            other => Err(format!("{what}: expected number, got {other:?}")),
        }
    }

    /// The value as an unsigned integer narrowed to `T` with a checked
    /// conversion, so an out-of-range value fails instead of wrapping.
    ///
    /// # Errors
    ///
    /// Fails if the value is not an unsigned integer or does not fit
    /// `T`.
    pub fn as_int<T: TryFrom<u64>>(&self, what: &str) -> Result<T, String> {
        let n = self.as_u64(what)?;
        T::try_from(n).map_err(|_| format!("{what}: {n} is out of range"))
    }
}

/// Parses one JSON document (of the escape-free dialect) into a
/// [`Value`].
///
/// # Errors
///
/// Fails with a description of the first malformed construct.
pub fn parse(text: &str) -> Result<Value, String> {
    let mut p = Parser { bytes: text.as_bytes(), pos: 0 };
    let v = p.value()?;
    p.skip_ws();
    if p.pos != p.bytes.len() {
        return Err(format!("trailing data at byte {}", p.pos));
    }
    Ok(v)
}

/// Formats a float as the shortest text that parses back to the same
/// `f64`, which is also valid JSON.
///
/// # Panics
///
/// Panics if `x` is NaN or infinite (JSON has no spelling for them).
#[must_use]
pub fn float(x: f64) -> String {
    assert!(x.is_finite(), "JSON numbers must be finite: {x}");
    let s = format!("{x:?}");
    debug_assert!(s.parse::<f64>() == Ok(x));
    s
}

/// Run metadata (seed, scenario label, attack setup …), sorted by key.
pub type Meta = BTreeMap<String, String>;

/// Inserts one metadata entry.
///
/// # Panics
///
/// Panics if the key or value contains `"` or `\` — the encoding is
/// escape-free.
pub fn set_meta(meta: &mut Meta, key: &str, value: String) {
    assert!(
        !key.contains(['"', '\\']) && !value.contains(['"', '\\']),
        "metadata must not contain quotes or backslashes: {key:?} = {value:?}"
    );
    meta.insert(key.to_string(), value);
}

/// Renders the artifact envelope
/// `{"meta":{…},<header fields>,"<key>":[…]}` with one item per line,
/// each written by `write_item`. Header values are pre-encoded JSON.
pub fn write_envelope<I>(
    meta: &Meta,
    header: &[(&str, String)],
    key: &str,
    items: impl IntoIterator<Item = I>,
    mut write_item: impl FnMut(&mut String, I),
) -> String {
    let mut out = String::from("{\"meta\":{");
    for (i, (k, v)) in meta.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        let _ = write!(out, "\"{k}\":\"{v}\"");
    }
    out.push('}');
    for (k, v) in header {
        let _ = write!(out, ",\"{k}\":{v}");
    }
    let _ = write!(out, ",\"{key}\":[");
    for (i, item) in items.into_iter().enumerate() {
        out.push_str(if i == 0 { "\n" } else { ",\n" });
        write_item(&mut out, item);
    }
    out.push_str("\n]}\n");
    out
}

/// A parsed envelope: its metadata, the root object (read the header
/// fields with [`Value::get`]) and the decoded items.
#[derive(Debug)]
pub struct Envelope<T> {
    /// The `meta` object.
    pub meta: Meta,
    /// The whole document.
    pub root: Value,
    /// The `key` array, decoded item by item.
    pub items: Vec<T>,
}

/// Parses an envelope written by [`write_envelope`] with the same
/// `header` keys and items `key`, decoding each item with `parse_item`.
///
/// # Errors
///
/// Fails on malformed JSON, an unknown top-level key, a missing `meta`
/// or `key`, a non-string metadata value or the first item
/// `parse_item` rejects. Callers read (and so require) the header
/// fields themselves.
pub fn read_envelope<T>(
    text: &str,
    header: &[&str],
    key: &str,
    parse_item: impl FnMut(&Value) -> Result<T, String>,
) -> Result<Envelope<T>, String> {
    let root = parse(text)?;
    let allowed: Vec<&str> = ["meta", key].into_iter().chain(header.iter().copied()).collect();
    root.only_keys("top-level", &allowed)?;
    let mut meta = Meta::new();
    for (k, v) in root.get("meta")?.as_object("meta")? {
        meta.insert(k.clone(), v.as_str(k)?.to_string());
    }
    let items = root.get(key)?.as_array(key)?.iter().map(parse_item).collect::<Result<_, _>>()?;
    Ok(Envelope { meta, root, items })
}

struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl Parser<'_> {
    fn skip_ws(&mut self) {
        while self.bytes.get(self.pos).is_some_and(u8::is_ascii_whitespace) {
            self.pos += 1;
        }
    }

    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.pos).copied()
    }

    fn expect(&mut self, b: u8) -> Result<(), String> {
        if self.peek() == Some(b) {
            self.pos += 1;
            Ok(())
        } else {
            Err(format!("expected {:?} at byte {}", b as char, self.pos))
        }
    }

    fn value(&mut self) -> Result<Value, String> {
        self.skip_ws();
        match self.peek() {
            Some(b'{') => self.object(),
            Some(b'[') => self.array(),
            Some(b'"') => Ok(Value::String(self.string()?)),
            Some(b't') => self.literal("true", Value::Bool(true)),
            Some(b'f') => self.literal("false", Value::Bool(false)),
            Some(b'n') => self.literal("null", Value::Null),
            Some(_) => self.number(),
            None => Err("unexpected end of input".into()),
        }
    }

    fn literal(&mut self, word: &str, v: Value) -> Result<Value, String> {
        if self.bytes[self.pos..].starts_with(word.as_bytes()) {
            self.pos += word.len();
            Ok(v)
        } else {
            Err(format!("invalid literal at byte {}", self.pos))
        }
    }

    fn string(&mut self) -> Result<String, String> {
        self.expect(b'"')?;
        let start = self.pos;
        while let Some(b) = self.peek() {
            match b {
                b'"' => {
                    let s = std::str::from_utf8(&self.bytes[start..self.pos])
                        .map_err(|e| e.to_string())?
                        .to_string();
                    self.pos += 1;
                    return Ok(s);
                }
                b'\\' => return Err(format!("escape sequences unsupported at byte {}", self.pos)),
                _ => self.pos += 1,
            }
        }
        Err("unterminated string".into())
    }

    fn number(&mut self) -> Result<Value, String> {
        let start = self.pos;
        while self
            .peek()
            .is_some_and(|b| b.is_ascii_digit() || matches!(b, b'-' | b'+' | b'.' | b'e' | b'E'))
        {
            self.pos += 1;
        }
        let text = std::str::from_utf8(&self.bytes[start..self.pos]).map_err(|e| e.to_string())?;
        // Validate now so malformed numbers fail at parse time even if
        // the field is never read.
        text.parse::<f64>().map_err(|_| format!("bad number {text:?}"))?;
        Ok(Value::Number(text.to_string()))
    }

    fn array(&mut self) -> Result<Value, String> {
        self.expect(b'[')?;
        let mut items = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b']') {
            self.pos += 1;
            return Ok(Value::Array(items));
        }
        loop {
            items.push(self.value()?);
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b']') => {
                    self.pos += 1;
                    return Ok(Value::Array(items));
                }
                _ => return Err(format!("expected ',' or ']' at byte {}", self.pos)),
            }
        }
    }

    fn object(&mut self) -> Result<Value, String> {
        self.expect(b'{')?;
        let mut fields = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(Value::Object(fields));
        }
        loop {
            self.skip_ws();
            let key = self.string()?;
            self.skip_ws();
            self.expect(b':')?;
            fields.push((key, self.value()?));
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(Value::Object(fields));
                }
                _ => return Err(format!("expected ',' or '}}' at byte {}", self.pos)),
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn accessors_name_the_key_and_narrow_checked() {
        let v = parse(r#"{"n":4294967300,"s":"x","b":true,"f":0.5,"z":null}"#).unwrap();
        assert_eq!(v.get("n").unwrap().as_u64("n"), Ok(4_294_967_300));
        let err = v.get("n").unwrap().as_int::<u32>("n").unwrap_err();
        assert!(err.contains("out of range"), "got: {err}");
        assert_eq!(v.get("s").unwrap().as_str("s"), Ok("x"));
        assert_eq!(v.get("b").unwrap().as_bool("b"), Ok(true));
        assert_eq!(v.get("f").unwrap().as_f64("f"), Ok(0.5));
        assert_eq!(v.get("q").unwrap_err(), "missing \"q\"");
        assert!(v.field("q").is_none());
        assert!(v.get("z").unwrap().as_bool("z").is_err());
        let err = parse("1e999").unwrap().as_f64("x").unwrap_err();
        assert!(err.contains("finite"), "got: {err}");
        assert!(parse("[1]").unwrap().get("n").is_err());
    }

    #[test]
    fn parser_rejects_escapes_and_trailing_data() {
        assert!(parse(r#"{"a":"b\"c"}"#).unwrap_err().contains("escape"));
        assert!(parse("{} x").unwrap_err().contains("trailing"));
        assert!(parse("[1,]").is_err());
        assert!(parse("1.2.3").is_err());
    }

    #[test]
    #[should_panic(expected = "must be finite")]
    fn float_rejects_nan() {
        let _ = float(f64::NAN);
    }

    #[test]
    fn envelope_round_trips() {
        let mut meta = Meta::new();
        set_meta(&mut meta, "seed", "42".to_string());
        set_meta(&mut meta, "attacked", "true".to_string());
        let ticks = [3u64, 5];
        let header = [("interval_us", "2000000".to_string())];
        let text = write_envelope(&meta, &header, "ticks", ticks, |out, t| {
            out.push_str(&t.to_string());
        });
        assert_eq!(
            text,
            "{\"meta\":{\"attacked\":\"true\",\"seed\":\"42\"},\"interval_us\":2000000,\
             \"ticks\":[\n3,\n5\n]}\n"
        );
        let env = read_envelope(&text, &["interval_us"], "ticks", |v| v.as_u64("tick")).unwrap();
        assert_eq!((env.meta, env.items), (meta, ticks.to_vec()));
        assert_eq!(env.root.get("interval_us").unwrap().as_u64("interval_us"), Ok(2_000_000));
        let err =
            read_envelope(&text, &["interval_us"], "snapshots", |v| v.as_u64("tick")).unwrap_err();
        assert!(err.contains("unknown top-level key \"ticks\""), "got: {err}");
        let empty = write_envelope(&Meta::new(), &[], "ticks", [0u64; 0], |_, _| {});
        assert_eq!(empty, "{\"meta\":{},\"ticks\":[\n]}\n");
    }
}
