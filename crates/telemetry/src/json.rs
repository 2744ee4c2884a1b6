//! Minimal JSON: string escaping and an object member writer for
//! emission, and a tolerant recursive-descent parser for
//! the `analyze` stage's readback of run lines and trace files. Hand-rolled because the workspace is
//! dependency-free by design; tolerant because `analyze` must skip
//! non-JSON lines (CSV output, blank lines) rather than abort a report.

/// Escape `s` as a JSON string literal, quotes included.
pub fn json_str(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    push_json_str(&mut out, s);
    out
}

fn push_json_str(out: &mut String, s: &str) {
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

/// Writes one JSON object member by member, in call order: the commas,
/// the key quoting and the string escaping that every emitted line
/// shares. Keys are written as given (the emitters' keys are plain
/// identifiers).
#[derive(Debug, Default)]
pub struct Obj {
    buf: String,
}

impl Obj {
    fn key(&mut self, key: &str) {
        self.buf.push(if self.buf.is_empty() { '{' } else { ',' });
        self.buf.push('"');
        self.buf.push_str(key);
        self.buf.push_str("\":");
    }

    /// A string member, escaped.
    pub fn str(&mut self, key: &str, value: &str) -> &mut Self {
        self.key(key);
        push_json_str(&mut self.buf, value);
        self
    }

    /// A member whose `Display` form is already JSON: an integer, a bool,
    /// `null`, a formatted float, a finished nested object or array.
    pub fn raw(&mut self, key: &str, value: impl std::fmt::Display) -> &mut Self {
        use std::fmt::Write;
        self.key(key);
        write!(self.buf, "{value}").expect("writing to a String cannot fail");
        self
    }

    /// Close the object and take its text.
    pub fn finish(&mut self) -> String {
        if self.buf.is_empty() {
            self.buf.push('{');
        }
        self.buf.push('}');
        std::mem::take(&mut self.buf)
    }
}

/// A parsed JSON value. Objects preserve key order. A plain non-negative
/// integer literal that fits a `u64` stays exact in [`Value::Int`] — seeds
/// are `u64`, and an `f64` rounds them above 2^53; every other number is
/// an `f64`.
#[derive(Clone, Debug, PartialEq)]
pub enum Value {
    Null,
    Bool(bool),
    Int(u64),
    Num(f64),
    Str(String),
    Arr(Vec<Value>),
    Obj(Vec<(String, Value)>),
}

impl Value {
    /// Member `key` of an object, if this is an object that has it.
    pub fn get(&self, key: &str) -> Option<&Value> {
        match self {
            Value::Obj(members) => members.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// The value as a non-negative integer, if numeric and integral.
    pub fn as_u64(&self) -> Option<u64> {
        match self {
            Value::Int(n) => Some(*n),
            Value::Num(v) if *v >= 0.0 && v.fract() == 0.0 => Some(*v as u64),
            _ => None,
        }
    }

    /// The value as a string slice, if a string.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Value::Str(s) => Some(s),
            _ => None,
        }
    }
}

/// Deepest array/object nesting [`parse`] follows. The emitters nest four
/// deep; the parser recurses once per level, so input from outside must
/// not choose the depth.
const MAX_DEPTH: usize = 128;

/// Parse one JSON document. Trailing garbage after the document is an
/// error, as is nesting deeper than 128 levels; surrounding whitespace is
/// fine.
pub fn parse(input: &str) -> Result<Value, String> {
    let bytes = input.as_bytes();
    let mut pos = 0;
    let value = parse_value(bytes, &mut pos, 0)?;
    skip_ws(bytes, &mut pos);
    if pos != bytes.len() {
        return Err(format!("trailing characters at byte {pos}"));
    }
    Ok(value)
}

fn skip_ws(bytes: &[u8], pos: &mut usize) {
    while *pos < bytes.len() && matches!(bytes[*pos], b' ' | b'\t' | b'\n' | b'\r') {
        *pos += 1;
    }
}

fn expect(bytes: &[u8], pos: &mut usize, lit: &str) -> Result<(), String> {
    if bytes[*pos..].starts_with(lit.as_bytes()) {
        *pos += lit.len();
        Ok(())
    } else {
        Err(format!("expected `{lit}` at byte {pos}", pos = *pos))
    }
}

fn parse_value(bytes: &[u8], pos: &mut usize, depth: usize) -> Result<Value, String> {
    skip_ws(bytes, pos);
    if depth == MAX_DEPTH && matches!(bytes.get(*pos), Some(b'[' | b'{')) {
        return Err(format!(
            "nesting deeper than {MAX_DEPTH} levels at byte {}",
            *pos
        ));
    }
    match bytes.get(*pos) {
        None => Err("unexpected end of input".to_string()),
        Some(b'n') => expect(bytes, pos, "null").map(|()| Value::Null),
        Some(b't') => expect(bytes, pos, "true").map(|()| Value::Bool(true)),
        Some(b'f') => expect(bytes, pos, "false").map(|()| Value::Bool(false)),
        Some(b'"') => parse_string(bytes, pos).map(Value::Str),
        Some(b'[') => {
            *pos += 1;
            let mut items = Vec::new();
            skip_ws(bytes, pos);
            if bytes.get(*pos) == Some(&b']') {
                *pos += 1;
                return Ok(Value::Arr(items));
            }
            loop {
                items.push(parse_value(bytes, pos, depth + 1)?);
                skip_ws(bytes, pos);
                match bytes.get(*pos) {
                    Some(b',') => *pos += 1,
                    Some(b']') => {
                        *pos += 1;
                        return Ok(Value::Arr(items));
                    }
                    _ => return Err(format!("expected `,` or `]` at byte {pos}", pos = *pos)),
                }
            }
        }
        Some(b'{') => {
            *pos += 1;
            let mut members = Vec::new();
            skip_ws(bytes, pos);
            if bytes.get(*pos) == Some(&b'}') {
                *pos += 1;
                return Ok(Value::Obj(members));
            }
            loop {
                skip_ws(bytes, pos);
                let key = parse_string(bytes, pos)?;
                skip_ws(bytes, pos);
                expect(bytes, pos, ":")?;
                let value = parse_value(bytes, pos, depth + 1)?;
                members.push((key, value));
                skip_ws(bytes, pos);
                match bytes.get(*pos) {
                    Some(b',') => *pos += 1,
                    Some(b'}') => {
                        *pos += 1;
                        return Ok(Value::Obj(members));
                    }
                    _ => return Err(format!("expected `,` or `}}` at byte {pos}", pos = *pos)),
                }
            }
        }
        Some(_) => parse_number(bytes, pos),
    }
}

fn parse_string(bytes: &[u8], pos: &mut usize) -> Result<String, String> {
    if bytes.get(*pos) != Some(&b'"') {
        return Err(format!("expected string at byte {pos}", pos = *pos));
    }
    *pos += 1;
    let mut out = String::new();
    loop {
        let start = *pos;
        while *pos < bytes.len() && bytes[*pos] != b'"' && bytes[*pos] != b'\\' {
            *pos += 1;
        }
        out.push_str(
            std::str::from_utf8(&bytes[start..*pos]).map_err(|_| "invalid utf-8".to_string())?,
        );
        match bytes.get(*pos) {
            None => return Err("unterminated string".to_string()),
            Some(b'"') => {
                *pos += 1;
                return Ok(out);
            }
            Some(b'\\') => {
                *pos += 1;
                let esc = bytes
                    .get(*pos)
                    .ok_or_else(|| "unterminated escape".to_string())?;
                *pos += 1;
                match esc {
                    b'"' => out.push('"'),
                    b'\\' => out.push('\\'),
                    b'/' => out.push('/'),
                    b'b' => out.push('\u{8}'),
                    b'f' => out.push('\u{c}'),
                    b'n' => out.push('\n'),
                    b'r' => out.push('\r'),
                    b't' => out.push('\t'),
                    b'u' => {
                        let hex = bytes
                            .get(*pos..*pos + 4)
                            .ok_or_else(|| "truncated \\u escape".to_string())?;
                        let hex = std::str::from_utf8(hex)
                            .map_err(|_| "invalid \\u escape".to_string())?;
                        let code = u32::from_str_radix(hex, 16)
                            .map_err(|_| "invalid \\u escape".to_string())?;
                        *pos += 4;
                        // Surrogate pairs are not worth the code here: the
                        // emitters never write them. Map lone surrogates
                        // to the replacement character.
                        out.push(char::from_u32(code).unwrap_or('\u{fffd}'));
                    }
                    other => return Err(format!("invalid escape `\\{}`", *other as char)),
                }
            }
            Some(_) => unreachable!("scan stopped on quote or backslash"),
        }
    }
}

fn parse_number(bytes: &[u8], pos: &mut usize) -> Result<Value, String> {
    let start = *pos;
    while *pos < bytes.len()
        && matches!(bytes[*pos], b'0'..=b'9' | b'-' | b'+' | b'.' | b'e' | b'E')
    {
        *pos += 1;
    }
    let text =
        std::str::from_utf8(&bytes[start..*pos]).map_err(|_| "invalid number".to_string())?;
    if let Ok(n) = text.parse::<u64>() {
        return Ok(Value::Int(n));
    }
    text.parse::<f64>()
        .map(Value::Num)
        .map_err(|_| format!("invalid number `{text}` at byte {start}"))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_a_run_line_shape() {
        let line = r#"{"schema":1,"scenario_id":"ring-advert","completed":true,"rounds_to_completion":500,"dynamics":null,"history":[1,2.5,-3e2]}"#;
        let v = parse(line).expect("parses");
        assert_eq!(v.get("schema").and_then(Value::as_u64), Some(1));
        assert_eq!(
            v.get("scenario_id").and_then(Value::as_str),
            Some("ring-advert")
        );
        assert_eq!(v.get("completed"), Some(&Value::Bool(true)));
        assert_eq!(
            v.get("rounds_to_completion").and_then(Value::as_u64),
            Some(500)
        );
        assert_eq!(v.get("dynamics"), Some(&Value::Null));
        let Some(Value::Arr(items)) = v.get("history") else {
            panic!("history must be an array");
        };
        assert_eq!(items[1], Value::Num(2.5));
        assert_eq!(items[2], Value::Num(-300.0));
        assert_eq!(items[2].as_u64(), None, "negative is not u64");
    }

    #[test]
    fn string_escapes_round_trip() {
        let original = "a\"b\\c\nd\te\u{1}";
        let encoded = json_str(original);
        let decoded = parse(&encoded).expect("parses");
        assert_eq!(decoded.as_str(), Some(original));
    }

    #[test]
    fn obj_writes_members_in_order_with_commas_and_escaping() {
        let mut o = Obj::default();
        o.str("k", "a\"b\\c\nd").raw("n", 7).raw("none", "null");
        let mut inner = Obj::default();
        inner.raw("x", format_args!("{:.2}", 1.0));
        o.raw("inner", inner.finish()).raw("on", true);
        let text = o.finish();
        assert_eq!(
            text,
            r#"{"k":"a\"b\\c\nd","n":7,"none":null,"inner":{"x":1.00},"on":true}"#
        );
        assert!(parse(&text).is_ok());
        assert_eq!(Obj::default().finish(), "{}");
    }

    #[test]
    fn rejects_garbage_and_truncation() {
        assert!(parse("not json").is_err());
        assert!(parse("{\"a\":1,}").is_err());
        assert!(parse("{\"a\":1} extra").is_err());
        assert!(parse("\"unterminated").is_err());
        assert!(parse("").is_err());
    }

    #[test]
    fn nesting_is_capped_instead_of_overflowing_the_stack() {
        let nested = |levels: usize| "[".repeat(levels) + &"]".repeat(levels);
        assert!(parse(&nested(MAX_DEPTH)).is_ok());
        let err = parse(&nested(MAX_DEPTH + 1)).unwrap_err();
        assert!(err.contains("nesting deeper than 128"), "{err}");
        // What `analyze` and `--resume` used to die on: unclosed, and deep
        // enough to exhaust the stack one frame per level.
        assert!(parse(&"[".repeat(2_000_000)).is_err());
        assert!(parse(&"{\"a\":".repeat(2_000_000)).is_err());
    }

    #[test]
    fn integer_literals_stay_exact_past_f64_precision() {
        for n in [0, (1 << 53) + 1, u64::MAX] {
            assert_eq!(parse(&n.to_string()).unwrap().as_u64(), Some(n));
        }
        // Anything else numeric is still a float, integral or not.
        assert_eq!(parse("1e3").unwrap().as_u64(), Some(1000));
        assert_eq!(parse("2.0").unwrap(), Value::Num(2.0));
        assert_eq!(
            parse("18446744073709551616").unwrap(),
            Value::Num(2f64.powi(64))
        );
        assert_eq!(parse("-1").unwrap().as_u64(), None);
    }
}
