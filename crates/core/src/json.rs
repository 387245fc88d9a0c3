//! A minimal JSON reader/writer shared by the result store and the
//! `llc-serve` HTTP API.
//!
//! The workspace deliberately carries no serde dependency, and its JSON
//! documents only need objects, arrays, strings and small integers, so
//! this hand-rolled implementation covers exactly that: full string
//! escaping (including `\uXXXX`), numbers parsed as `f64`, and strict
//! errors on trailing garbage or malformed input.
//!
//! [`table_to_json`] / [`table_from_json`] define the canonical JSON shape
//! of a rendered [`Table`], used by the result store
//! ([`crate::results`]) that the batch runner and `llc-serve` share.

use crate::report::Table;

/// A parsed JSON value.
#[derive(Debug, Clone, PartialEq)]
pub enum Value {
    /// Object as an ordered list of `(key, value)` pairs.
    Object(Vec<(String, Value)>),
    /// Array.
    Array(Vec<Value>),
    /// String.
    Str(String),
    /// Number (stored documents only use small non-negative integers).
    Num(f64),
    /// Boolean.
    Bool(bool),
    /// Null.
    Null,
}

impl Value {
    /// Builds an object from `(&str, Value)` pairs.
    pub fn object(fields: Vec<(&str, Value)>) -> Value {
        Value::Object(
            fields
                .into_iter()
                .map(|(k, v)| (k.to_string(), v))
                .collect(),
        )
    }

    /// Looks up a field if this is an object.
    pub fn field(&self, name: &str) -> Option<&Value> {
        match self {
            Value::Object(fields) => fields.iter().find(|(k, _)| k == name).map(|(_, v)| v),
            _ => None,
        }
    }

    /// The string payload, if this is a string.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Value::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The elements, if this is an array.
    pub fn as_array(&self) -> Option<&[Value]> {
        match self {
            Value::Array(v) => Some(v),
            _ => None,
        }
    }

    /// The number as a `u64`, if this is a non-negative integer.
    pub fn as_u64(&self) -> Option<u64> {
        match self {
            Value::Num(n) if *n >= 0.0 && n.fract() == 0.0 && *n <= u64::MAX as f64 => {
                Some(*n as u64)
            }
            _ => None,
        }
    }

    /// Serializes to compact JSON.
    pub fn render(&self) -> String {
        let mut out = String::new();
        self.render_into(&mut out);
        out
    }

    fn render_into(&self, out: &mut String) {
        match self {
            Value::Object(fields) => {
                out.push('{');
                for (i, (k, v)) in fields.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    escape_into(k, out);
                    out.push(':');
                    v.render_into(out);
                }
                out.push('}');
            }
            Value::Array(items) => {
                out.push('[');
                for (i, v) in items.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    v.render_into(out);
                }
                out.push(']');
            }
            Value::Str(s) => escape_into(s, out),
            Value::Num(n) => {
                if n.fract() == 0.0 && n.abs() < 9e15 {
                    out.push_str(&format!("{}", *n as i64));
                } else {
                    out.push_str(&format!("{n}"));
                }
            }
            Value::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
            Value::Null => out.push_str("null"),
        }
    }
}

fn escape_into(s: &str, out: &mut String) {
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

/// Parses a complete JSON document; trailing non-whitespace is an error.
pub fn parse(text: &str) -> Result<Value, String> {
    let mut p = Parser {
        text,
        bytes: text.as_bytes(),
        pos: 0,
    };
    let v = p.value()?;
    p.skip_ws();
    if p.pos != p.bytes.len() {
        return Err(format!("trailing garbage at byte {}", p.pos));
    }
    Ok(v)
}

struct Parser<'a> {
    text: &'a str,
    bytes: &'a [u8],
    pos: usize,
}

impl Parser<'_> {
    fn skip_ws(&mut self) {
        while let Some(b) = self.bytes.get(self.pos) {
            if matches!(b, b' ' | b'\t' | b'\n' | b'\r') {
                self.pos += 1;
            } else {
                break;
            }
        }
    }

    fn peek(&mut self) -> Result<u8, String> {
        self.skip_ws();
        self.bytes
            .get(self.pos)
            .copied()
            .ok_or_else(|| "unexpected end of input".to_string())
    }

    fn consume(&mut self, b: u8) -> Result<(), String> {
        if self.peek()? == b {
            self.pos += 1;
            Ok(())
        } else {
            Err(format!("expected {:?} at byte {}", b as char, self.pos))
        }
    }

    fn value(&mut self) -> Result<Value, String> {
        match self.peek()? {
            b'{' => self.object(),
            b'[' => self.array(),
            b'"' => self.string().map(Value::Str),
            b't' => self.literal("true", Value::Bool(true)),
            b'f' => self.literal("false", Value::Bool(false)),
            b'n' => self.literal("null", Value::Null),
            b'-' | b'0'..=b'9' => self.number(),
            other => Err(format!(
                "unexpected character {:?} at byte {}",
                other as char, self.pos
            )),
        }
    }

    fn literal(&mut self, word: &str, value: Value) -> Result<Value, String> {
        self.skip_ws();
        if self.bytes[self.pos..].starts_with(word.as_bytes()) {
            self.pos += word.len();
            Ok(value)
        } else {
            Err(format!("expected {word:?} at byte {}", self.pos))
        }
    }

    fn object(&mut self) -> Result<Value, String> {
        self.consume(b'{')?;
        let mut fields = Vec::new();
        if self.peek()? == b'}' {
            self.pos += 1;
            return Ok(Value::Object(fields));
        }
        loop {
            if self.peek()? != b'"' {
                return Err(format!("expected object key at byte {}", self.pos));
            }
            let key = self.string()?;
            self.consume(b':')?;
            fields.push((key, self.value()?));
            match self.peek()? {
                b',' => self.pos += 1,
                b'}' => {
                    self.pos += 1;
                    return Ok(Value::Object(fields));
                }
                other => {
                    return Err(format!(
                        "expected ',' or '}}', found {:?} at byte {}",
                        other as char, self.pos
                    ))
                }
            }
        }
    }

    fn array(&mut self) -> Result<Value, String> {
        self.consume(b'[')?;
        let mut items = Vec::new();
        if self.peek()? == b']' {
            self.pos += 1;
            return Ok(Value::Array(items));
        }
        loop {
            items.push(self.value()?);
            match self.peek()? {
                b',' => self.pos += 1,
                b']' => {
                    self.pos += 1;
                    return Ok(Value::Array(items));
                }
                other => {
                    return Err(format!(
                        "expected ',' or ']', found {:?} at byte {}",
                        other as char, self.pos
                    ))
                }
            }
        }
    }

    fn string(&mut self) -> Result<String, String> {
        self.consume(b'"')?;
        let mut out = String::new();
        loop {
            // Copy the run up to the next quote or backslash in one go:
            // the input is a `&str` and both stop bytes are ASCII, so the
            // run is whole characters.
            let run = self.bytes[self.pos..]
                .iter()
                .position(|&b| b == b'"' || b == b'\\')
                .ok_or_else(|| "unterminated string".to_string())?;
            out.push_str(&self.text[self.pos..self.pos + run]);
            self.pos += run + 1;
            if self.bytes[self.pos - 1] == b'"' {
                return Ok(out);
            }
            let esc = *self
                .bytes
                .get(self.pos)
                .ok_or_else(|| "unterminated escape".to_string())?;
            self.pos += 1;
            match esc {
                b'"' => out.push('"'),
                b'\\' => out.push('\\'),
                b'/' => out.push('/'),
                b'n' => out.push('\n'),
                b'r' => out.push('\r'),
                b't' => out.push('\t'),
                b'b' => out.push('\u{8}'),
                b'f' => out.push('\u{c}'),
                b'u' => {
                    let hex = self
                        .bytes
                        .get(self.pos..self.pos + 4)
                        .ok_or_else(|| "truncated \\u escape".to_string())?;
                    let hex = std::str::from_utf8(hex)
                        .map_err(|_| "non-ASCII in \\u escape".to_string())?;
                    let code = u32::from_str_radix(hex, 16)
                        .map_err(|_| format!("bad \\u escape {hex:?}"))?;
                    self.pos += 4;
                    // Surrogates never appear in our own output; map them
                    // to U+FFFD rather than erroring so foreign documents
                    // still load.
                    out.push(char::from_u32(code).unwrap_or('\u{FFFD}'));
                }
                other => return Err(format!("bad escape \\{}", other as char)),
            }
        }
    }

    fn number(&mut self) -> Result<Value, String> {
        self.skip_ws();
        let start = self.pos;
        while let Some(b) = self.bytes.get(self.pos) {
            if matches!(b, b'-' | b'+' | b'.' | b'e' | b'E' | b'0'..=b'9') {
                self.pos += 1;
            } else {
                break;
            }
        }
        let digits = &self.bytes[start..self.pos];
        // Up to 15 digits fit below 2^53, so the integer is exactly the
        // `f64` that `parse` would round to.
        if (1..=15).contains(&digits.len()) && digits.iter().all(u8::is_ascii_digit) {
            let n = digits
                .iter()
                .fold(0u64, |n, &d| n * 10 + u64::from(d - b'0'));
            return Ok(Value::Num(n as f64));
        }
        let text = &self.text[start..self.pos];
        text.parse::<f64>()
            .map(Value::Num)
            .map_err(|_| format!("bad number {text:?}"))
    }
}

/// Encodes a [`Table`] as the canonical JSON object
/// (`{"title","headers","rows","notes"}`) used by the result store.
pub fn table_to_json(t: &Table) -> Value {
    let strings = |v: &[String]| Value::Array(v.iter().map(|s| Value::Str(s.clone())).collect());
    Value::object(vec![
        ("title", Value::Str(t.title.clone())),
        ("headers", strings(&t.headers)),
        (
            "rows",
            Value::Array(t.rows.iter().map(|r| strings(r)).collect()),
        ),
        ("notes", strings(&t.notes)),
    ])
}

/// Decodes a [`Table`] from its canonical JSON object, validating the
/// shape (string cells, rows as wide as the header).
///
/// # Errors
///
/// Returns a human-readable description of the first structural problem.
pub fn table_from_json(v: &Value) -> Result<Table, String> {
    let strings = |v: Option<&Value>, what: &str| -> Result<Vec<String>, String> {
        v.and_then(Value::as_array)
            .ok_or_else(|| format!("table missing {what}"))?
            .iter()
            .map(|s| {
                s.as_str()
                    .map(str::to_string)
                    .ok_or_else(|| format!("non-string in {what}"))
            })
            .collect()
    };
    let title = v
        .field("title")
        .and_then(Value::as_str)
        .ok_or("table missing title")?
        .to_string();
    let headers = strings(v.field("headers"), "headers")?;
    let rows = v
        .field("rows")
        .and_then(Value::as_array)
        .ok_or("table missing rows")?
        .iter()
        .map(|r| strings(Some(r), "row"))
        .collect::<Result<Vec<_>, _>>()?;
    for row in &rows {
        if row.len() != headers.len() {
            return Err(format!("ragged row in table {title:?}"));
        }
    }
    let notes = strings(v.field("notes"), "notes")?;
    Ok(Table {
        title,
        headers,
        rows,
        notes,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn round_trips_nested_values() {
        let v = Value::object(vec![
            ("version", Value::Num(1.0)),
            (
                "entries",
                Value::Array(vec![Value::object(vec![
                    ("id", Value::Str("fig7 — 100% \"done\"\n".into())),
                    ("ok", Value::Bool(true)),
                    ("none", Value::Null),
                ])]),
            ),
        ]);
        let text = v.render();
        assert_eq!(parse(&text).expect("own output parses"), v);
    }

    #[test]
    fn rejects_malformed_input() {
        for bad in [
            "",
            "{",
            "[1,",
            "{\"a\" 1}",
            "\"unterminated",
            "{} trailing",
            "nul",
        ] {
            assert!(parse(bad).is_err(), "{bad:?} should fail");
        }
    }

    #[test]
    fn unicode_escapes_decode() {
        let v = parse("\"a\\u00e9b\\u0041, raw é too\"").expect("parse");
        assert_eq!(v.as_str(), Some("aébA, raw é too"));
    }

    #[test]
    fn tables_round_trip_through_json() {
        let mut t = Table::new("T — «x»", &["a", "b"]);
        t.row(vec!["1".into(), "2".into()]);
        t.note("note with \"quotes\"");
        let back = table_from_json(&table_to_json(&t)).expect("round trip");
        assert_eq!(back.title, t.title);
        assert_eq!(back.headers, t.headers);
        assert_eq!(back.rows, t.rows);
        assert_eq!(back.notes, t.notes);
        assert!(table_from_json(&parse("{\"title\":\"x\"}").expect("parse")).is_err());
    }

    #[test]
    fn numbers_as_u64() {
        assert_eq!(parse("17").expect("parse").as_u64(), Some(17));
        assert_eq!(parse("-1").expect("parse").as_u64(), None);
        assert_eq!(parse("1.5").expect("parse").as_u64(), None);
    }

    /// The string and number readers as they stood before the run-copy
    /// and integer fast paths: one `from_utf8` per character, every
    /// number through `str::parse::<f64>`.
    mod seed {
        pub fn string(bytes: &[u8]) -> Result<String, String> {
            assert_eq!(bytes[0], b'"');
            let mut pos = 1;
            let mut out = String::new();
            loop {
                let b = *bytes.get(pos).ok_or("unterminated string")?;
                pos += 1;
                match b {
                    b'"' => return Ok(out),
                    b'\\' => {
                        let esc = *bytes.get(pos).ok_or("unterminated escape")?;
                        pos += 1;
                        match esc {
                            b'"' => out.push('"'),
                            b'\\' => out.push('\\'),
                            b'/' => out.push('/'),
                            b'n' => out.push('\n'),
                            b'r' => out.push('\r'),
                            b't' => out.push('\t'),
                            b'b' => out.push('\u{8}'),
                            b'f' => out.push('\u{c}'),
                            b'u' => {
                                let hex = bytes.get(pos..pos + 4).ok_or("truncated")?;
                                let hex = std::str::from_utf8(hex).map_err(|_| "non-ASCII")?;
                                let code = u32::from_str_radix(hex, 16)
                                    .map_err(|_| format!("bad \\u escape {hex:?}"))?;
                                pos += 4;
                                out.push(char::from_u32(code).unwrap_or('\u{FFFD}'));
                            }
                            other => return Err(format!("bad escape \\{}", other as char)),
                        }
                    }
                    _ => {
                        let width = match b {
                            0x00..=0x7F => 1,
                            0xC0..=0xDF => 2,
                            0xE0..=0xEF => 3,
                            _ => 4,
                        };
                        let chunk = bytes.get(pos - 1..pos - 1 + width).ok_or("truncated")?;
                        out.push_str(std::str::from_utf8(chunk).map_err(|_| "bad UTF-8")?);
                        pos += width - 1;
                    }
                }
            }
        }

        pub fn number(text: &str) -> Result<f64, String> {
            text.parse::<f64>()
                .map_err(|_| format!("bad number {text:?}"))
        }
    }

    #[test]
    fn strings_parse_as_the_per_character_reader_did() {
        for doc in [
            r#""""#,
            r#""plain ascii run""#,
            r#""esc \" \\ \/ \n \r \t \b \f end""#,
            r#""\u00e9\u0041\u20ac\ud83d tail""#,
            "\"raw é € 𝄞 «mixed» \\n\"",
            "\"多字节 UTF-8 and \\\"quotes\\\"\"",
            "\"control \u{1} byte\"",
            r#""\\""#,
        ] {
            assert_eq!(
                parse(doc),
                seed::string(doc.as_bytes()).map(Value::Str),
                "{doc}"
            );
        }
        for bad in [r#""open"#, r#""bad \x escape""#, r#""\u12""#, r#""\"#] {
            assert!(parse(bad).is_err(), "{bad:?} should fail");
            assert!(seed::string(bad.as_bytes()).is_err(), "{bad:?}");
        }
    }

    #[test]
    fn numbers_parse_as_str_parse_did() {
        for text in [
            "0",
            "7",
            "007",
            "00",
            "42",
            "999999999999999",
            "1000000000000000",
            "9007199254740993",
            "18446744073709551615",
            "123456789012345678901234567890",
            "-0",
            "-17",
            "1.5",
            "1.",
            "0.1",
            "1e3",
            "1E-2",
            "-2.5e+10",
            "1e400",
        ] {
            let new = parse(text).map(|v| match v {
                Value::Num(x) => x.to_bits(),
                other => panic!("{text}: {other:?}"),
            });
            assert_eq!(new, seed::number(text).map(f64::to_bits), "{text}");
        }
        for bad in ["-", "1e", "--1", "1.2.3", "1-2"] {
            assert!(parse(bad).is_err(), "{bad:?} should fail");
            assert!(seed::number(bad).is_err(), "{bad:?}");
        }
        let doc = "{\"accesses\":[[0, 12345, 64, \"R\"],[7,00042,1e2,\"W\"]],\"n\":-3}";
        let v = parse(doc).expect("parse");
        let row = v.field("accesses").and_then(Value::as_array).expect("rows")[1].clone();
        assert_eq!(
            row,
            Value::Array(vec![
                Value::Num(7.0),
                Value::Num(42.0),
                Value::Num(100.0),
                Value::Str("W".into()),
            ])
        );
    }
}
