//! A minimal, dependency-free TOML subset parser in the spirit of
//! `imobif_obs::json`: a positioned document model, line/column errors, and
//! nothing the scenario grammar doesn't need.
//!
//! Supported subset (DESIGN.md §14 is the grammar reference):
//! `# comments`, bare keys, basic `"strings"` with escapes, integers (with
//! `_` separators), floats (including exponent notation), booleans,
//! single-line arrays with optional trailing comma, `[table]` /
//! `[dotted.table]` headers, and `[[array.of.tables]]` headers. Every entry
//! records the line/column of its key, so semantic errors raised later
//! ("unknown key", "expected integer") still point at the offending source
//! position. Arrays nest at most [`MAX_DEPTH`] deep, as JSON specs do, and
//! so do tables (a header names at most that many segments), so hostile
//! input cannot overflow the stack, in parsing or in dropping the document.

use std::fmt;

use imobif_obs::json::MAX_DEPTH;

/// A 1-based source position.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Pos {
    /// 1-based line number.
    pub line: u32,
    /// 1-based column number, counting characters.
    pub col: u32,
}

/// A parse or spec-building error carrying the source position it points at.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParseError {
    /// 1-based line.
    pub line: u32,
    /// 1-based column, counting characters.
    pub col: u32,
    /// Human-readable description.
    pub msg: String,
}

impl ParseError {
    /// An error at a known position.
    #[must_use]
    pub fn at(pos: Pos, msg: impl Into<String>) -> Self {
        ParseError { line: pos.line, col: pos.col, msg: msg.into() }
    }
}

impl fmt::Display for ParseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "line {}, column {}: {}", self.line, self.col, self.msg)
    }
}

impl std::error::Error for ParseError {}

/// A scalar or array value.
#[derive(Debug, Clone, PartialEq)]
pub enum TomlValue {
    /// A basic string.
    Str(String),
    /// An integer (underscore separators removed).
    Int(i64),
    /// A float (`1.5`, `1e-7`, …).
    Float(f64),
    /// A boolean.
    Bool(bool),
    /// A single-line array.
    Array(Vec<TomlValue>),
}

/// One table slot: a value, a sub-table, or an array of tables.
#[derive(Debug, Clone, PartialEq)]
pub enum Item {
    /// `key = value`.
    Value(TomlValue),
    /// `[table]` (or a table implicitly created by a deeper header).
    Table(Table),
    /// `[[array.of.tables]]`.
    ArrayOfTables(Vec<Table>),
}

/// An ordered table. Entries keep document order; each remembers where its
/// key appeared.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Table {
    /// `(key, key position, contents)` in document order.
    pub entries: Vec<(String, Pos, Item)>,
}

impl Table {
    /// Looks up a direct child.
    #[must_use]
    pub fn get(&self, key: &str) -> Option<(&Pos, &Item)> {
        self.entries.iter().find(|(k, _, _)| k == key).map(|(_, p, i)| (p, i))
    }

    /// Inserts, assuming the caller checked for duplicates.
    pub fn insert(&mut self, key: impl Into<String>, pos: Pos, item: Item) {
        self.entries.push((key.into(), pos, item));
    }
}

/// Parses a TOML-subset document into a [`Table`].
///
/// # Errors
///
/// Returns a [`ParseError`] with the exact line/column of the first problem.
pub fn parse(text: &str) -> Result<Table, ParseError> {
    let mut root = Table::default();
    // The table the next `key = value` lines land in, as a path from root.
    let mut path: Vec<String> = Vec::new();
    for (i, raw) in text.lines().enumerate() {
        let line_no = u32::try_from(i + 1).unwrap_or(u32::MAX);
        let mut cur = Cursor::new(raw, line_no);
        cur.skip_ws();
        match cur.peek() {
            None | Some(b'#') => {}
            Some(b'[') => path = parse_header(&mut cur, &mut root)?,
            Some(_) => parse_key_value(&mut cur, &mut root, &path)?,
        }
    }
    Ok(root)
}

/// Parses a `[table]` or `[[array.of.tables]]` header line and registers it
/// in `root`; returns the new current path.
fn parse_header(cur: &mut Cursor<'_>, root: &mut Table) -> Result<Vec<String>, ParseError> {
    let header_pos = cur.pos();
    cur.bump(); // '['
    let aot = cur.peek() == Some(b'[');
    if aot {
        cur.bump();
    }
    let mut segments = Vec::new();
    loop {
        cur.skip_ws();
        let seg_pos = cur.pos();
        let seg = cur.bare_key();
        if seg.is_empty() {
            return Err(ParseError::at(seg_pos, "expected a key inside table header"));
        }
        if segments.len() == MAX_DEPTH {
            return Err(ParseError::at(seg_pos, format!("tables nested deeper than {MAX_DEPTH}")));
        }
        segments.push(seg.to_owned());
        cur.skip_ws();
        match cur.peek() {
            Some(b'.') => cur.bump(),
            Some(b']') => break,
            _ => return Err(ParseError::at(cur.pos(), "expected `.` or `]` in table header")),
        }
    }
    cur.bump(); // ']'
    if aot {
        if cur.peek() != Some(b']') {
            return Err(ParseError::at(cur.pos(), "expected `]]` to close array-of-tables header"));
        }
        cur.bump();
    }
    cur.skip_ws();
    if !matches!(cur.peek(), None | Some(b'#')) {
        return Err(ParseError::at(cur.pos(), "unexpected characters after table header"));
    }
    // Navigate to the parent, creating intermediate tables as needed.
    let (last, parents) = segments.split_last().expect("at least one segment");
    let parent = descend(root, parents, header_pos)?;
    match parent.entries.iter_mut().find(|(k, _, _)| k == last) {
        None => {
            let item = if aot {
                Item::ArrayOfTables(vec![Table::default()])
            } else {
                Item::Table(Table::default())
            };
            parent.insert(last.clone(), header_pos, item);
        }
        Some((_, _, Item::ArrayOfTables(tables))) if aot => tables.push(Table::default()),
        Some((_, _, Item::Table(_))) if !aot => {
            return Err(ParseError::at(header_pos, format!("table `{last}` defined twice")));
        }
        Some(_) => {
            return Err(ParseError::at(
                header_pos,
                format!("`{last}` is already defined with a different shape"),
            ));
        }
    }
    Ok(segments)
}

fn parse_key_value(
    cur: &mut Cursor<'_>,
    root: &mut Table,
    path: &[String],
) -> Result<(), ParseError> {
    let key_pos = cur.pos();
    let key = cur.bare_key();
    if key.is_empty() {
        return Err(ParseError::at(key_pos, "expected a key"));
    }
    cur.skip_ws();
    if cur.peek() != Some(b'=') {
        return Err(ParseError::at(cur.pos(), format!("expected `=` after key `{key}`")));
    }
    cur.bump();
    cur.skip_ws();
    let value = cur.value(0)?;
    cur.skip_ws();
    if !matches!(cur.peek(), None | Some(b'#')) {
        return Err(ParseError::at(cur.pos(), "unexpected characters after value"));
    }
    let table = descend(root, path, key_pos)?;
    if table.get(key).is_some() {
        return Err(ParseError::at(key_pos, format!("duplicate key `{key}`")));
    }
    table.insert(key, key_pos, Item::Value(value));
    Ok(())
}

/// Walks `path` from `root`, creating empty tables for missing segments and
/// entering the *last* element of any array-of-tables on the way (TOML's
/// rule for `[[variant]]` followed by `[variant.energy]`).
fn descend<'a>(
    root: &'a mut Table,
    path: &[String],
    pos: Pos,
) -> Result<&'a mut Table, ParseError> {
    let mut current = root;
    for seg in path {
        if current.get(seg).is_none() {
            current.insert(seg.clone(), pos, Item::Table(Table::default()));
        }
        let (_, _, item) =
            current.entries.iter_mut().find(|(k, _, _)| k == seg).expect("just ensured");
        current = match item {
            Item::Table(t) => t,
            Item::ArrayOfTables(tables) => tables.last_mut().expect("headers insert one table"),
            Item::Value(_) => {
                return Err(ParseError::at(pos, format!("key `{seg}` is not a table")));
            }
        };
    }
    Ok(current)
}

/// A single-line byte cursor with 1-based column tracking. Columns count
/// characters: a multi-byte UTF-8 character advances the column once, on
/// its leading byte. Keys and numbers are read as slices of the line, so a
/// key allocates once, at its exact size, and a number not at all.
struct Cursor<'a> {
    text: &'a str,
    at: usize,
    line: u32,
    col: u32,
}

impl<'a> Cursor<'a> {
    fn new(text: &'a str, line: u32) -> Self {
        Cursor { text, at: 0, line, col: 1 }
    }

    fn pos(&self) -> Pos {
        Pos { line: self.line, col: self.col }
    }

    fn peek(&self) -> Option<u8> {
        self.text.as_bytes().get(self.at).copied()
    }

    fn bump(&mut self) {
        if let Some(b) = self.peek() {
            self.at += 1;
            // UTF-8 continuation bytes belong to the character already
            // counted.
            if b & 0xC0 != 0x80 {
                self.col += 1;
            }
        }
    }

    /// The next character, consumed whole.
    fn bump_char(&mut self) -> Option<char> {
        let c = self.text[self.at..].chars().next()?;
        self.at += c.len_utf8();
        self.col += 1;
        Some(c)
    }

    fn skip_ws(&mut self) {
        while matches!(self.peek(), Some(b' ' | b'\t')) {
            self.bump();
        }
    }

    /// Consumes the longest run of bytes matching `keep`, which must match
    /// only ASCII bytes, and returns it.
    fn take_while(&mut self, keep: impl Fn(u8) -> bool) -> &'a str {
        let start = self.at;
        let len = self.text.as_bytes()[start..].iter().take_while(|&&b| keep(b)).count();
        self.at += len;
        self.col += len as u32;
        &self.text[start..self.at]
    }

    fn bare_key(&mut self) -> &'a str {
        self.take_while(|b| b.is_ascii_alphanumeric() || b == b'_' || b == b'-')
    }

    /// Parses one value. `depth` counts the arrays enclosing it.
    fn value(&mut self, depth: usize) -> Result<TomlValue, ParseError> {
        match self.peek() {
            None => Err(ParseError::at(self.pos(), "expected a value")),
            Some(b'"') => self.string().map(TomlValue::Str),
            Some(b'[') if depth == MAX_DEPTH => {
                Err(ParseError::at(self.pos(), format!("arrays nested deeper than {MAX_DEPTH}")))
            }
            Some(b'[') => self.array(depth),
            Some(b't' | b'f') => self.boolean(),
            Some(_) => self.number(),
        }
    }

    fn string(&mut self) -> Result<String, ParseError> {
        let start = self.pos();
        self.bump(); // opening quote
        let mut out = String::new();
        loop {
            // Copy the run up to the next quote or escape in one piece.
            out.push_str(self.take_text());
            match self.peek() {
                None => return Err(ParseError::at(start, "unterminated string")),
                Some(b'"') => {
                    self.bump();
                    return Ok(out);
                }
                _ => {
                    self.bump(); // '\\'
                    let esc_pos = self.pos();
                    match self.bump_char() {
                        Some('"') => out.push('"'),
                        Some('\\') => out.push('\\'),
                        Some('n') => out.push('\n'),
                        Some('r') => out.push('\r'),
                        Some('t') => out.push('\t'),
                        Some('u') => {
                            let hex_start = self.at;
                            for _ in 0..4 {
                                self.bump_char().ok_or_else(|| {
                                    ParseError::at(esc_pos, "truncated \\u escape")
                                })?;
                            }
                            let hex = &self.text[hex_start..self.at];
                            let code = u32::from_str_radix(hex, 16).map_err(|_| {
                                ParseError::at(esc_pos, format!("bad \\u escape `{hex}`"))
                            })?;
                            out.push(char::from_u32(code).unwrap_or('\u{fffd}'));
                        }
                        other => {
                            return Err(ParseError::at(
                                esc_pos,
                                format!(
                                    "unknown escape `\\{}`",
                                    other.map_or_else(String::new, String::from)
                                ),
                            ));
                        }
                    }
                }
            }
        }
    }

    /// Consumes string content up to the next quote or backslash (or the
    /// line's end), characters of any width included.
    fn take_text(&mut self) -> &'a str {
        let start = self.at;
        let len = self.text[start..].find(['"', '\\']).unwrap_or(self.text.len() - start);
        let run = &self.text[start..start + len];
        self.at += len;
        self.col += run.chars().count() as u32;
        run
    }

    fn array(&mut self, depth: usize) -> Result<TomlValue, ParseError> {
        self.bump(); // '['
        let mut items = Vec::new();
        loop {
            self.skip_ws();
            match self.peek() {
                None => return Err(ParseError::at(self.pos(), "expected `]` to close array")),
                Some(b']') => {
                    self.bump();
                    return Ok(TomlValue::Array(items));
                }
                _ => {
                    items.push(self.value(depth + 1)?);
                    self.skip_ws();
                    match self.peek() {
                        Some(b',') => self.bump(),
                        Some(b']') => {}
                        _ => {
                            return Err(ParseError::at(self.pos(), "expected `,` or `]` in array"));
                        }
                    }
                }
            }
        }
    }

    fn boolean(&mut self) -> Result<TomlValue, ParseError> {
        let pos = self.pos();
        match self.bare_key() {
            "true" => Ok(TomlValue::Bool(true)),
            "false" => Ok(TomlValue::Bool(false)),
            word => Err(ParseError::at(pos, format!("expected a value, found `{word}`"))),
        }
    }

    fn number(&mut self) -> Result<TomlValue, ParseError> {
        let pos = self.pos();
        let raw = self.take_while(|b| b.is_ascii_digit() || b"+-.eE_".contains(&b));
        if raw.is_empty() {
            return Err(ParseError::at(pos, "expected a value"));
        }
        let cleaned: std::borrow::Cow<'_, str> =
            if raw.contains('_') { raw.replace('_', "").into() } else { raw.into() };
        if !cleaned.contains(['.', 'e', 'E']) {
            if let Ok(i) = cleaned.parse::<i64>() {
                return Ok(TomlValue::Int(i));
            }
        }
        cleaned
            .parse::<f64>()
            .map(TomlValue::Float)
            .map_err(|_| ParseError::at(pos, format!("invalid number `{raw}`")))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_scalars_tables_and_arrays() {
        let doc = parse(
            "# a comment\n\
             name = \"demo\"\n\
             flows = 1_00\n\
             rate = 2.5 # trailing comment\n\
             exp = 1e-7\n\
             on = true\n\
             xs = [1, 2.5, \"s\",]\n\
             \n\
             [base]\n\
             seed = 42\n\
             [base.energy]\n\
             kind = \"fixed\"\n",
        )
        .unwrap();
        assert_eq!(doc.get("name").unwrap().1, &Item::Value(TomlValue::Str("demo".into())));
        assert_eq!(doc.get("flows").unwrap().1, &Item::Value(TomlValue::Int(100)));
        assert_eq!(doc.get("rate").unwrap().1, &Item::Value(TomlValue::Float(2.5)));
        assert_eq!(doc.get("exp").unwrap().1, &Item::Value(TomlValue::Float(1e-7)));
        assert_eq!(doc.get("on").unwrap().1, &Item::Value(TomlValue::Bool(true)));
        let Some((_, Item::Value(TomlValue::Array(xs)))) = doc.get("xs") else {
            panic!("xs should be an array");
        };
        assert_eq!(xs.len(), 3);
        let Some((_, Item::Table(base))) = doc.get("base") else { panic!("base table") };
        assert_eq!(base.get("seed").unwrap().1, &Item::Value(TomlValue::Int(42)));
        let Some((_, Item::Table(energy))) = base.get("energy") else { panic!("energy table") };
        assert_eq!(energy.get("kind").unwrap().1, &Item::Value(TomlValue::Str("fixed".into())));
    }

    #[test]
    fn array_of_tables_with_subtables() {
        let doc = parse(
            "[[variant]]\nlabel = \"a\"\n[variant.energy]\nkind = \"fixed\"\njoules = 5.0\n\
             [[variant]]\nlabel = \"b\"\n",
        )
        .unwrap();
        let Some((_, Item::ArrayOfTables(vs))) = doc.get("variant") else { panic!("aot") };
        assert_eq!(vs.len(), 2);
        assert_eq!(vs[0].get("label").unwrap().1, &Item::Value(TomlValue::Str("a".into())));
        assert!(matches!(vs[0].get("energy"), Some((_, Item::Table(_)))));
        assert!(vs[1].get("energy").is_none());
    }

    #[test]
    fn positions_point_at_the_problem() {
        // Missing `=` on line 2, column 6 (after the key and a space).
        let err = parse("a = 1\nbad 2\n").unwrap_err();
        assert_eq!((err.line, err.col), (2, 5));
        assert!(err.to_string().starts_with("line 2, column 5:"), "{err}");

        // Unterminated string: points at the opening quote.
        let err = parse("s = \"oops\n").unwrap_err();
        assert_eq!((err.line, err.col), (1, 5));

        // Duplicate key: points at the second definition.
        let err = parse("x = 1\nx = 2\n").unwrap_err();
        assert_eq!((err.line, err.col), (2, 1));
        assert!(err.msg.contains("duplicate key `x`"));

        // Bad array separator.
        let err = parse("xs = [1 2]\n").unwrap_err();
        assert_eq!((err.line, err.col), (1, 9));
    }

    #[test]
    fn columns_count_characters_not_bytes() {
        // `é` is two bytes but one column: the bad value starts at column 9.
        let err = parse("s = \"é\" x\n").unwrap_err();
        assert_eq!((err.line, err.col), (1, 9));
        let err = parse("k = \"é\\q\"\n").unwrap_err();
        assert_eq!((err.line, err.col), (1, 8), "{err}");
        let doc = parse("s = \"a\\u00e9b\" # ü\n").unwrap();
        assert_eq!(doc.get("s").unwrap().1, &Item::Value(TomlValue::Str("aéb".into())));
    }

    #[test]
    fn header_errors_are_positioned() {
        let err = parse("[base\nseed = 1\n").unwrap_err();
        assert_eq!(err.line, 1);
        let err = parse("[base]\n[base]\n").unwrap_err();
        assert!(err.msg.contains("defined twice"));
        let err = parse("[[v]]\n[v]\n").unwrap_err();
        assert!(err.msg.contains("different shape"));
    }

    #[test]
    fn underscored_integers_and_signed_numbers() {
        let doc = parse("a = 8_000_000\nb = -0.5\nc = +3\n").unwrap();
        assert_eq!(doc.get("a").unwrap().1, &Item::Value(TomlValue::Int(8_000_000)));
        assert_eq!(doc.get("b").unwrap().1, &Item::Value(TomlValue::Float(-0.5)));
        assert_eq!(doc.get("c").unwrap().1, &Item::Value(TomlValue::Int(3)));
    }
}
