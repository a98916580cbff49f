//! A linear-time JSON reader into the serde shim's `Value` tree.
//!
//! The shim's own `serde_json::from_str` re-validates the whole rest of
//! the input as UTF-8 for every character inside a string, so it takes
//! quadratic time: a 3.5 MB Hikvision report parses in over a minute.
//! The benchmark reads `dtaint`'s reports with this reader instead, so
//! its correctness gate costs milliseconds, not the run.

use serde::{Deserialize, Value};

/// Parses `text` into a `T` through the shim's `Deserialize`.
///
/// # Errors
///
/// Malformed JSON, or a tree that does not match `T`.
pub fn from_str<T: Deserialize>(text: &str) -> Result<T, String> {
    T::from_value(&parse(text)?).map_err(|e| e.to_string())
}

/// Parses one JSON document (surrounding whitespace allowed).
///
/// # Errors
///
/// Malformed JSON, with the byte offset of the problem.
pub fn parse(text: &str) -> Result<Value, String> {
    let mut p = Reader { text, pos: 0 };
    let v = p.value()?;
    p.skip_ws();
    if p.pos != text.len() {
        return Err(p.err("trailing characters"));
    }
    Ok(v)
}

struct Reader<'a> {
    text: &'a str,
    pos: usize,
}

impl Reader<'_> {
    fn err(&self, msg: &str) -> String {
        format!("{msg} at byte {}", self.pos)
    }

    fn peek(&self) -> Option<u8> {
        self.text.as_bytes().get(self.pos).copied()
    }

    fn skip_ws(&mut self) {
        while matches!(self.peek(), Some(b' ' | b'\t' | b'\n' | b'\r')) {
            self.pos += 1;
        }
    }

    fn eat(&mut self, b: u8) -> Result<(), String> {
        if self.peek() == Some(b) {
            self.pos += 1;
            Ok(())
        } else {
            Err(self.err(&format!("expected `{}`", b as char)))
        }
    }

    fn keyword(&mut self, kw: &str, v: Value) -> Result<Value, String> {
        if self.text[self.pos..].starts_with(kw) {
            self.pos += kw.len();
            Ok(v)
        } else {
            Err(self.err(&format!("expected `{kw}`")))
        }
    }

    fn value(&mut self) -> Result<Value, String> {
        self.skip_ws();
        match self.peek() {
            Some(b'{') => self
                .seq(b'}', |p| {
                    let key = p.string()?;
                    p.skip_ws();
                    p.eat(b':')?;
                    Ok((key, p.value()?))
                })
                .map(Value::Obj),
            Some(b'[') => self.seq(b']', Reader::value).map(Value::Arr),
            Some(b'"') => self.string().map(Value::Str),
            Some(b't') => self.keyword("true", Value::Bool(true)),
            Some(b'f') => self.keyword("false", Value::Bool(false)),
            Some(b'n') => self.keyword("null", Value::Null),
            Some(b'-' | b'0'..=b'9') => self.number(),
            Some(_) => Err(self.err("unexpected character")),
            None => Err(self.err("unexpected end of input")),
        }
    }

    /// A bracketed, comma-separated sequence; the opening byte is next.
    fn seq<T>(
        &mut self,
        close: u8,
        mut item: impl FnMut(&mut Self) -> Result<T, String>,
    ) -> Result<Vec<T>, String> {
        self.pos += 1;
        let mut out = Vec::new();
        self.skip_ws();
        if self.peek() == Some(close) {
            self.pos += 1;
            return Ok(out);
        }
        loop {
            self.skip_ws();
            out.push(item(self)?);
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(c) if c == close => {
                    self.pos += 1;
                    return Ok(out);
                }
                _ => return Err(self.err("expected `,` or a closing bracket")),
            }
        }
    }

    fn string(&mut self) -> Result<String, String> {
        self.eat(b'"')?;
        let mut out = String::new();
        loop {
            // Copy the run up to the next quote or escape in one slice;
            // both are ASCII, so the slice ends on a character boundary.
            let rest = &self.text.as_bytes()[self.pos..];
            let run = rest.iter().position(|&b| b == b'"' || b == b'\\');
            let Some(n) = run else { return Err(self.err("unterminated string")) };
            out.push_str(&self.text[self.pos..self.pos + n]);
            self.pos += n;
            if self.peek() == Some(b'"') {
                self.pos += 1;
                return Ok(out);
            }
            self.pos += 1;
            let c = match self.peek() {
                Some(b'"') => '"',
                Some(b'\\') => '\\',
                Some(b'/') => '/',
                Some(b'n') => '\n',
                Some(b'r') => '\r',
                Some(b't') => '\t',
                Some(b'b') => '\u{8}',
                Some(b'f') => '\u{c}',
                Some(b'u') => {
                    self.pos += 1;
                    let hi = self.hex4()?;
                    let code = if (0xD800..0xDC00).contains(&hi) {
                        self.eat(b'\\')?;
                        self.eat(b'u')?;
                        let lo = self.hex4()?;
                        0x10000 + ((hi - 0xD800) << 10) + lo.wrapping_sub(0xDC00)
                    } else {
                        hi
                    };
                    out.push(char::from_u32(code).ok_or_else(|| self.err("bad \\u escape"))?);
                    continue;
                }
                _ => return Err(self.err("bad escape")),
            };
            out.push(c);
            self.pos += 1;
        }
    }

    fn hex4(&mut self) -> Result<u32, String> {
        let hex =
            self.text.get(self.pos..self.pos + 4).ok_or_else(|| self.err("bad \\u escape"))?;
        let v = u32::from_str_radix(hex, 16).map_err(|_| self.err("bad \\u escape"))?;
        self.pos += 4;
        Ok(v)
    }

    fn number(&mut self) -> Result<Value, String> {
        let start = self.pos;
        let bytes = self.text.as_bytes();
        while matches!(bytes.get(self.pos), Some(b'-' | b'+' | b'.' | b'e' | b'E' | b'0'..=b'9')) {
            self.pos += 1;
        }
        let s = &self.text[start..self.pos];
        if !s.contains(['.', 'e', 'E']) {
            if let Ok(n) = s.parse::<i64>() {
                return Ok(Value::Int(n));
            }
        }
        s.parse::<f64>().map(Value::Float).map_err(|_| self.err("bad number"))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn reads_what_the_shim_writes() {
        let v = Value::Obj(vec![
            ("name".into(), Value::Str("a\"b\\c\nd é \u{1F600}".into())),
            ("n".into(), Value::Int(-42)),
            ("f".into(), Value::Float(1.5e-7)),
            ("arr".into(), Value::Arr(vec![Value::Bool(true), Value::Null, Value::Obj(vec![])])),
        ]);
        for text in [serde_json::to_string(&v), serde_json::to_string_pretty(&v)] {
            assert_eq!(parse(&text.expect("renders")), Ok(v.clone()));
        }
        assert_eq!(parse("\"\\u0041\\ud83d\\ude00\""), Ok(Value::Str("A😀".into())));
    }

    #[test]
    fn rejects_malformed_input() {
        for bad in ["{\"a\": }", "[1,]", "tru", "1 2", "\"open", "{\"a\" 1}"] {
            assert!(parse(bad).is_err(), "{bad}");
        }
    }
}
