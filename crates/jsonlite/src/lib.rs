//! A dependency-free JSON value type with a parser, a writer and a record
//! codec.
//!
//! This workspace builds with no crates.io access, so it cannot pull in
//! `serde`/`serde_json`. Everything that needs JSON — the RunReport
//! artifacts, the Chrome-trace exporter in `msgpass`, the serving protocol
//! and the golden tests — goes through this crate instead: a [`Json`] tree,
//! strict [`Json::parse`], and compact `Json::to_string` (its `Display`) /
//! pretty [`Json::to_string_pretty`] output.
//!
//! # Records
//!
//! A *record* is a flat struct whose JSON form is one object with a member
//! per field, keyed by the field's name. [`record!`] declares the struct and
//! its codec from one field list, so each key is spelled once — as its
//! field — and a field added to the struct is written and read with no
//! further edit. Each field goes through a [`Codec`]: [`Required`] unless the
//! declaration names another after `as`:
//!
//! * [`Required`] — the key must be present and hold a [`Value`] of the
//!   field's type: a number, `bool`, `String`, nested record, `Vec` of
//!   values, or `Option` of one (`null` for `None`);
//! * [`Positive`] — a `usize` of at least 1;
//! * [`NullIsInf`] — an `f64` whose `+∞` ("disabled") is written as `null`
//!   and read back from it;
//! * [`Optional`] — an `Option<T>` whose key is left out when `None`;
//! * [`Skip`] — not serialized; reads as `Default::default()`.
//!
//! The reader is strict: integers must be whole and non-negative, a missing
//! key is an error, and every error names the JSON path of the offending
//! value, e.g. `phases[0].sent_bytes = -1 is not a non-negative integer` or
//! `phases[0].sent_bytes: phases[0] is missing field "sent_bytes"`. Keys the
//! record does not declare are ignored. Members are written in key order,
//! like every [`Json::Obj`].
//!
//! ```
//! jsonlite::record! {
//!     /// A toy record.
//!     #[derive(Debug, PartialEq)]
//!     pub struct Link {
//!         pub name: String,
//!         pub bytes: u64,
//!         pub bw: f64 as jsonlite::NullIsInf,
//!     }
//! }
//! let link = Link { name: "nic".into(), bytes: 8, bw: f64::INFINITY };
//! let text = link.to_json().to_string();
//! assert_eq!(text, r#"{"bw":null,"bytes":8,"name":"nic"}"#);
//! assert_eq!(Link::from_json(&jsonlite::Json::parse(&text).unwrap()), Ok(link));
//! let e = Link::from_json(&jsonlite::Json::parse(r#"{"name":"x","bw":1}"#).unwrap());
//! assert_eq!(e.unwrap_err(), r#"Link.bytes: Link is missing field "bytes""#);
//! ```

use std::collections::BTreeMap;
use std::fmt;

/// Deepest array/object nesting [`Json::parse`] accepts. The parser is
/// recursive, so without a cap one line of `[`s overflows the stack of the
/// thread parsing it and aborts the process; every document this
/// workspace writes nests fewer than 10 levels.
const MAX_DEPTH: usize = 128;

/// A parsed JSON document.
///
/// Objects preserve no insertion order (they are sorted by key), which keeps
/// output deterministic — important for golden tests.
#[derive(Clone, Debug, PartialEq)]
pub enum Json {
    /// `null`
    Null,
    /// `true` / `false`
    Bool(bool),
    /// Any JSON number (always stored as `f64`).
    Num(f64),
    /// A string.
    Str(String),
    /// An array.
    Arr(Vec<Json>),
    /// An object, sorted by key.
    Obj(BTreeMap<String, Json>),
}

/// Position-annotated parse failure.
#[derive(Clone, Debug, PartialEq)]
pub struct ParseError {
    /// Byte offset of the failure.
    pub pos: usize,
    /// What went wrong.
    pub msg: String,
}

impl fmt::Display for ParseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "JSON parse error at byte {}: {}", self.pos, self.msg)
    }
}

impl std::error::Error for ParseError {}

impl Json {
    /// Builds an object from key/value pairs.
    pub fn obj<K: Into<String>, I: IntoIterator<Item = (K, Json)>>(pairs: I) -> Json {
        Json::Obj(pairs.into_iter().map(|(k, v)| (k.into(), v)).collect())
    }

    /// Parses a complete JSON document (trailing whitespace allowed,
    /// trailing garbage and nesting deeper than 128 levels rejected).
    pub fn parse(text: &str) -> Result<Json, ParseError> {
        let mut p = Parser {
            text,
            pos: 0,
            depth: 0,
        };
        p.skip_ws();
        let v = p.value()?;
        p.skip_ws();
        if p.pos != p.text.len() {
            return Err(p.err("trailing characters after document"));
        }
        Ok(v)
    }

    /// Member lookup on objects; `None` on other variants or missing keys.
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(m) => m.get(key),
            _ => None,
        }
    }

    /// The string payload, if this is a string.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The numeric payload, if this is a number.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Json::Num(n) => Some(*n),
            _ => None,
        }
    }

    /// The boolean payload, if this is a boolean.
    pub fn as_bool(&self) -> Option<bool> {
        match self {
            Json::Bool(b) => Some(*b),
            _ => None,
        }
    }

    /// The elements, if this is an array.
    pub fn as_arr(&self) -> Option<&[Json]> {
        match self {
            Json::Arr(a) => Some(a),
            _ => None,
        }
    }

    /// The members, if this is an object.
    pub fn as_obj(&self) -> Option<&BTreeMap<String, Json>> {
        match self {
            Json::Obj(m) => Some(m),
            _ => None,
        }
    }

    /// Two-space-indented rendering.
    pub fn to_string_pretty(&self) -> String {
        let mut out = String::new();
        self.write(&mut out, Some(2), 0);
        out
    }

    fn write(&self, out: &mut String, indent: Option<usize>, level: usize) {
        match self {
            Json::Null => out.push_str("null"),
            Json::Bool(true) => out.push_str("true"),
            Json::Bool(false) => out.push_str("false"),
            Json::Num(n) => write_num(out, *n),
            Json::Str(s) => write_str(out, s),
            Json::Arr(items) => {
                out.push('[');
                for (i, item) in items.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    newline_indent(out, indent, level + 1);
                    item.write(out, indent, level + 1);
                }
                if !items.is_empty() {
                    newline_indent(out, indent, level);
                }
                out.push(']');
            }
            Json::Obj(members) => {
                out.push('{');
                for (i, (k, v)) in members.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    newline_indent(out, indent, level + 1);
                    write_str(out, k);
                    out.push(':');
                    if indent.is_some() {
                        out.push(' ');
                    }
                    v.write(out, indent, level + 1);
                }
                if !members.is_empty() {
                    newline_indent(out, indent, level);
                }
                out.push('}');
            }
        }
    }
}

/// Compact single-line rendering (`to_string` comes from this impl).
impl fmt::Display for Json {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let mut out = String::new();
        self.write(&mut out, None, 0);
        f.write_str(&out)
    }
}

fn newline_indent(out: &mut String, indent: Option<usize>, level: usize) {
    if let Some(width) = indent {
        out.push('\n');
        for _ in 0..width * level {
            out.push(' ');
        }
    }
}

fn write_num(out: &mut String, n: f64) {
    if n.is_finite() {
        // `{}` on f64 prints the shortest representation that round-trips,
        // and prints integral values without an exponent or trailing ".0"
        // except for the sign of zero.
        if n == n.trunc() && n.abs() < 1e15 {
            out.push_str(&format!("{}", n as i64));
        } else {
            out.push_str(&format!("{n}"));
        }
    } else {
        // JSON has no NaN/Inf; emit null like serde_json's lossy mode.
        out.push_str("null");
    }
}

fn write_str(out: &mut String, s: &str) {
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
}

struct Parser<'a> {
    text: &'a str,
    /// Byte offset into `text`; always on a character boundary.
    pos: usize,
    /// Containers currently open around `pos`.
    depth: usize,
}

impl<'a> Parser<'a> {
    fn err(&self, msg: &str) -> ParseError {
        ParseError {
            pos: self.pos,
            msg: msg.to_owned(),
        }
    }

    fn peek(&self) -> Option<u8> {
        self.text.as_bytes().get(self.pos).copied()
    }

    fn skip_ws(&mut self) {
        while matches!(self.peek(), Some(b' ' | b'\t' | b'\n' | b'\r')) {
            self.pos += 1;
        }
    }

    fn expect(&mut self, b: u8) -> Result<(), ParseError> {
        if self.peek() == Some(b) {
            self.pos += 1;
            Ok(())
        } else {
            Err(self.err(&format!("expected '{}'", b as char)))
        }
    }

    fn literal(&mut self, word: &str, value: Json) -> Result<Json, ParseError> {
        if self.text[self.pos..].starts_with(word) {
            self.pos += word.len();
            Ok(value)
        } else {
            Err(self.err(&format!("expected '{word}'")))
        }
    }

    fn value(&mut self) -> Result<Json, ParseError> {
        match self.peek() {
            Some(b'n') => self.literal("null", Json::Null),
            Some(b't') => self.literal("true", Json::Bool(true)),
            Some(b'f') => self.literal("false", Json::Bool(false)),
            Some(b'"') => Ok(Json::Str(self.string()?)),
            Some(b'[') => self.nested(Self::array),
            Some(b'{') => self.nested(Self::object),
            Some(c) if c == b'-' || c.is_ascii_digit() => self.number(),
            Some(_) => Err(self.err("unexpected character")),
            None => Err(self.err("unexpected end of input")),
        }
    }

    /// Parses one container a nesting level deeper, refusing to pass
    /// [`MAX_DEPTH`].
    fn nested(
        &mut self,
        container: fn(&mut Self) -> Result<Json, ParseError>,
    ) -> Result<Json, ParseError> {
        if self.depth == MAX_DEPTH {
            return Err(self.err(&format!("nesting deeper than {MAX_DEPTH} levels")));
        }
        self.depth += 1;
        let v = container(self);
        self.depth -= 1;
        v
    }

    fn array(&mut self) -> Result<Json, ParseError> {
        self.expect(b'[')?;
        let mut items = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b']') {
            self.pos += 1;
            return Ok(Json::Arr(items));
        }
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
                _ => return Err(self.err("expected ',' or ']' in array")),
            }
        }
    }

    fn object(&mut self) -> Result<Json, ParseError> {
        self.expect(b'{')?;
        let mut members = BTreeMap::new();
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(Json::Obj(members));
        }
        loop {
            self.skip_ws();
            let key = self.string()?;
            self.skip_ws();
            self.expect(b':')?;
            self.skip_ws();
            let value = self.value()?;
            members.insert(key, value);
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(Json::Obj(members));
                }
                _ => return Err(self.err("expected ',' or '}' in object")),
            }
        }
    }

    fn string(&mut self) -> Result<String, ParseError> {
        self.expect(b'"')?;
        let mut out = String::new();
        loop {
            match self.peek() {
                None => return Err(self.err("unterminated string")),
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
                        Some(b'b') => out.push('\u{8}'),
                        Some(b'f') => out.push('\u{c}'),
                        Some(b'n') => out.push('\n'),
                        Some(b'r') => out.push('\r'),
                        Some(b't') => out.push('\t'),
                        Some(b'u') => {
                            let hex = self
                                .text
                                .as_bytes()
                                .get(self.pos + 1..self.pos + 5)
                                .ok_or_else(|| self.err("truncated \\u escape"))?;
                            let hex = std::str::from_utf8(hex)
                                .map_err(|_| self.err("non-ASCII \\u escape"))?;
                            let cp = u32::from_str_radix(hex, 16)
                                .map_err(|_| self.err("bad \\u escape"))?;
                            // Surrogates are rejected rather than paired;
                            // nothing in this workspace emits them.
                            let c =
                                char::from_u32(cp).ok_or_else(|| self.err("invalid code point"))?;
                            out.push(c);
                            self.pos += 4;
                        }
                        _ => return Err(self.err("bad escape character")),
                    }
                    self.pos += 1;
                }
                Some(_) => {
                    // Consume one character: decode only the one at `pos`.
                    let c = self.text[self.pos..]
                        .chars()
                        .next()
                        .expect("peek saw a byte, so a character starts at pos");
                    if (c as u32) < 0x20 {
                        return Err(self.err("unescaped control character"));
                    }
                    out.push(c);
                    self.pos += c.len_utf8();
                }
            }
        }
    }

    fn number(&mut self) -> Result<Json, ParseError> {
        let start = self.pos;
        if self.peek() == Some(b'-') {
            self.pos += 1;
        }
        while matches!(self.peek(), Some(c) if c.is_ascii_digit()) {
            self.pos += 1;
        }
        if self.peek() == Some(b'.') {
            self.pos += 1;
            while matches!(self.peek(), Some(c) if c.is_ascii_digit()) {
                self.pos += 1;
            }
        }
        if matches!(self.peek(), Some(b'e' | b'E')) {
            self.pos += 1;
            if matches!(self.peek(), Some(b'+' | b'-')) {
                self.pos += 1;
            }
            while matches!(self.peek(), Some(c) if c.is_ascii_digit()) {
                self.pos += 1;
            }
        }
        self.text[start..self.pos]
            .parse::<f64>()
            .map(Json::Num)
            .map_err(|_| self.err("invalid number"))
    }
}

/// A type a record field can hold: its JSON form and a strict reader.
pub trait Value: Sized {
    /// The JSON form.
    fn to_json(&self) -> Json;
    /// Reads the JSON form back; `path` names `v` in errors.
    fn read(v: &Json, path: &str) -> Result<Self, String>;
}

impl Value for f64 {
    fn to_json(&self) -> Json {
        Json::Num(*self)
    }
    fn read(v: &Json, path: &str) -> Result<f64, String> {
        v.as_f64().ok_or_else(|| format!("{path} is not a number"))
    }
}

impl Value for u64 {
    fn to_json(&self) -> Json {
        Json::Num(*self as f64)
    }
    fn read(v: &Json, path: &str) -> Result<u64, String> {
        let f = f64::read(v, path)?;
        if f < 0.0 || f.fract() != 0.0 {
            return Err(format!("{path} = {f} is not a non-negative integer"));
        }
        Ok(f as u64)
    }
}

impl Value for usize {
    fn to_json(&self) -> Json {
        Json::Num(*self as f64)
    }
    fn read(v: &Json, path: &str) -> Result<usize, String> {
        u64::read(v, path).map(|n| n as usize)
    }
}

impl Value for bool {
    fn to_json(&self) -> Json {
        Json::Bool(*self)
    }
    fn read(v: &Json, path: &str) -> Result<bool, String> {
        v.as_bool()
            .ok_or_else(|| format!("{path} is not a boolean"))
    }
}

impl Value for String {
    fn to_json(&self) -> Json {
        Json::Str(self.clone())
    }
    fn read(v: &Json, path: &str) -> Result<String, String> {
        v.as_str()
            .map(str::to_owned)
            .ok_or_else(|| format!("{path} is not a string"))
    }
}

/// A JSON array; `path[i]` names element `i` in errors.
impl<T: Value> Value for Vec<T> {
    fn to_json(&self) -> Json {
        Json::Arr(self.iter().map(T::to_json).collect())
    }
    fn read(v: &Json, path: &str) -> Result<Vec<T>, String> {
        v.as_arr()
            .ok_or_else(|| format!("{path} is not an array"))?
            .iter()
            .enumerate()
            .map(|(i, e)| T::read(e, &format!("{path}[{i}]")))
            .collect()
    }
}

/// `null` when `None`.
impl<T: Value> Value for Option<T> {
    fn to_json(&self) -> Json {
        self.as_ref().map_or(Json::Null, T::to_json)
    }
    fn read(v: &Json, path: &str) -> Result<Option<T>, String> {
        match v {
            Json::Null => Ok(None),
            v => T::read(v, path).map(Some),
        }
    }
}

/// How a record writes and reads one field of type `T` (see the crate
/// docs' list).
pub trait Codec<T> {
    /// The member's value, or `None` to leave the key out.
    fn write(v: &T) -> Option<Json>;
    /// Reads member `key` of the object at `what`; `v` is `None` when the
    /// key is absent.
    fn read(v: Option<&Json>, what: &str, key: &str) -> Result<T, String>;
}

/// The default [`Codec`]: the key must be present.
pub struct Required;

impl<T: Value> Codec<T> for Required {
    fn write(v: &T) -> Option<Json> {
        Some(v.to_json())
    }
    fn read(v: Option<&Json>, what: &str, key: &str) -> Result<T, String> {
        T::read(
            v.ok_or_else(|| missing(what, key))?,
            &format!("{what}.{key}"),
        )
    }
}

/// A required `usize` of at least 1.
pub struct Positive;

impl Codec<usize> for Positive {
    fn write(v: &usize) -> Option<Json> {
        Some(v.to_json())
    }
    fn read(v: Option<&Json>, what: &str, key: &str) -> Result<usize, String> {
        match <Required as Codec<usize>>::read(v, what, key)? {
            0 => Err(format!("{what}.{key} = 0 is not a positive integer")),
            n => Ok(n),
        }
    }
}

/// A required `f64` where `+∞` means "disabled": [`Json`] writes every
/// non-finite number as `null`, and this reads `null` back as `+∞`.
pub struct NullIsInf;

impl Codec<f64> for NullIsInf {
    fn write(v: &f64) -> Option<Json> {
        Some(v.to_json())
    }
    fn read(v: Option<&Json>, what: &str, key: &str) -> Result<f64, String> {
        match v {
            Some(Json::Null) => Ok(f64::INFINITY),
            v => <Required as Codec<f64>>::read(v, what, key),
        }
    }
}

/// An `Option<T>` whose key is absent exactly when it is `None`.
pub struct Optional;

impl<T: Value> Codec<Option<T>> for Optional {
    fn write(v: &Option<T>) -> Option<Json> {
        v.as_ref().map(T::to_json)
    }
    fn read(v: Option<&Json>, what: &str, key: &str) -> Result<Option<T>, String> {
        v.map(|v| T::read(v, &format!("{what}.{key}"))).transpose()
    }
}

/// A field kept out of the JSON form; it reads as `Default::default()`.
pub struct Skip;

impl<T: Default> Codec<T> for Skip {
    fn write(_: &T) -> Option<Json> {
        None
    }
    fn read(_: Option<&Json>, _: &str, _: &str) -> Result<T, String> {
        Ok(T::default())
    }
}

impl Json {
    /// Member `key` of this object, read strictly as a `T` with the
    /// [`Required`] codec; `what` names this object in errors.
    pub fn member<T: Value>(&self, what: &str, key: &str) -> Result<T, String> {
        <Required as Codec<T>>::read(self.get(key), what, key)
    }

    /// Member `key` of this object, unread; `what` names this object in the
    /// error when it is missing.
    pub fn require(&self, what: &str, key: &str) -> Result<&Json, String> {
        self.get(key).ok_or_else(|| missing(what, key))
    }
}

fn missing(what: &str, key: &str) -> String {
    format!("{what}.{key}: {what} is missing field {key:?}")
}

/// Declares a record: the struct exactly as written, plus its [`Value`]
/// impl and inherent `to_json(&self) -> Json` / `from_json(&Json) ->
/// Result<Self, String>` (errors rooted at the struct's name). A field
/// followed by `as Codec` goes through that [`Codec`] instead of
/// [`Required`]. See the crate docs.
#[macro_export]
macro_rules! record {
    (@codec) => { $crate::Required };
    (@codec $codec:ty) => { $codec };
    (
        $(#[$attr:meta])*
        $vis:vis struct $name:ident {
            $(
                $(#[$field_attr:meta])*
                $field_vis:vis $field:ident : $ty:ty $(as $codec:ty)?
            ),* $(,)?
        }
    ) => {
        $(#[$attr])*
        $vis struct $name {
            $($(#[$field_attr])* $field_vis $field: $ty,)*
        }

        impl $name {
            /// The JSON object form: one member per serialized field.
            pub fn to_json(&self) -> $crate::Json {
                $crate::Value::to_json(self)
            }

            /// Reads the object form back strictly; errors name the path
            /// from this record's type name.
            pub fn from_json(v: &$crate::Json) -> ::std::result::Result<Self, String> {
                <Self as $crate::Value>::read(v, stringify!($name))
            }
        }

        impl $crate::Value for $name {
            fn to_json(&self) -> $crate::Json {
                let mut members = ::std::collections::BTreeMap::new();
                $(
                    if let Some(v) = <$crate::record!(@codec $($codec)?) as $crate::Codec<$ty>>::write(&self.$field) {
                        members.insert(stringify!($field).to_owned(), v);
                    }
                )*
                $crate::Json::Obj(members)
            }

            fn read(v: &$crate::Json, what: &str) -> ::std::result::Result<Self, String> {
                if v.as_obj().is_none() {
                    return Err(format!("{what} is not an object"));
                }
                Ok($name {
                    $($field: <$crate::record!(@codec $($codec)?) as $crate::Codec<$ty>>::read(
                        v.get(stringify!($field)),
                        what,
                        stringify!($field),
                    )?,)*
                })
            }
        }
    };
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scalars_round_trip() {
        for text in ["null", "true", "false", "0", "-1", "3.25", "1e3", "\"hi\""] {
            let v = Json::parse(text).unwrap();
            assert_eq!(Json::parse(&v.to_string()).unwrap(), v, "{text}");
        }
    }

    #[test]
    fn nested_structure_round_trips() {
        let text = r#"{"a":[1,2,{"b":null}],"c":"x\ny","d":{"e":true}}"#;
        let v = Json::parse(text).unwrap();
        assert_eq!(v.to_string(), text);
        assert_eq!(Json::parse(&v.to_string_pretty()).unwrap(), v);
        assert_eq!(v.get("c").unwrap().as_str().unwrap(), "x\ny");
        assert_eq!(v.get("a").unwrap().as_arr().unwrap().len(), 3);
    }

    #[test]
    fn numbers_parse_exactly() {
        assert_eq!(Json::parse("42").unwrap().as_f64(), Some(42.0));
        assert_eq!(Json::parse("-0.5e2").unwrap().as_f64(), Some(-50.0));
        // integral floats print without a fraction
        assert_eq!(Json::Num(1e6).to_string(), "1000000");
        assert_eq!(Json::Num(0.25).to_string(), "0.25");
        // non-finite numbers degrade to null
        assert_eq!(Json::Num(f64::NAN).to_string(), "null");
    }

    #[test]
    fn string_escapes() {
        let v = Json::Str("a\"b\\c\nd\u{1}".into());
        let text = v.to_string();
        assert_eq!(text, "\"a\\\"b\\\\c\\nd\\u0001\"");
        assert_eq!(Json::parse(&text).unwrap(), v);
        assert_eq!(Json::parse(r#""Aé""#).unwrap().as_str().unwrap(), "Aé");
    }

    #[test]
    fn rejects_malformed_documents() {
        for bad in [
            "",
            "{",
            "[1,",
            "{\"a\"}",
            "tru",
            "1.2.3",
            "\"unterminated",
            "[] []",
            "{'a':1}",
        ] {
            assert!(Json::parse(bad).is_err(), "{bad:?} should fail");
        }
    }

    #[test]
    fn parse_error_reports_position() {
        let e = Json::parse("[1, x]").unwrap_err();
        assert_eq!(e.pos, 4);
        assert!(e.to_string().contains("byte 4"));
    }

    #[test]
    fn nesting_is_capped_not_a_stack_overflow() {
        let deep = |n: usize| format!("{}{}", "[".repeat(n), "]".repeat(n));
        assert!(Json::parse(&deep(MAX_DEPTH)).is_ok());
        let e = Json::parse(&deep(MAX_DEPTH + 1)).unwrap_err();
        assert_eq!(e.pos, MAX_DEPTH);
        assert!(e.msg.contains("nesting"), "{e}");
        // One unterminated line of brackets used to recurse once per byte.
        assert!(Json::parse(&"[".repeat(60_000)).is_err());
        assert!(Json::parse(&r#"{"a":"#.repeat(60_000)).is_err());
    }

    #[test]
    fn long_strings_parse_in_linear_time() {
        // The scanner used to re-validate the whole rest of the input once
        // per character: minutes for this 1 MiB string, even optimised.
        let body = "aé€".repeat((1 << 20) / 6);
        let text = format!(r#"{{"id":"{body}"}}"#);
        let t0 = std::time::Instant::now();
        let v = Json::parse(&text).unwrap();
        let secs = t0.elapsed().as_secs_f64();
        assert_eq!(v.get("id").unwrap().as_str().unwrap(), body);
        assert!(secs < 1.0, "1 MiB string took {secs:.2} s");
    }

    #[test]
    fn empty_containers() {
        assert_eq!(Json::parse("[]").unwrap().to_string(), "[]");
        assert_eq!(Json::parse("{}").unwrap().to_string(), "{}");
        assert_eq!(Json::parse("[ ]").unwrap(), Json::Arr(vec![]));
    }
}
