//! A small XML 1.0 reader and writer.
//!
//! Scope: what RPC payloads need — elements, attributes, character data,
//! entity references, CDATA sections, comments, and the XML declaration.
//! Out of scope (rejected or skipped): DTDs/doctype internal subsets
//! (skipped without expansion — no billion-laughs exposure), processing
//! instructions (skipped). Namespace *syntax* is preserved
//! (`SOAP-ENV:Envelope` keeps its prefix); a start tag's local name drops
//! the prefix, which is all the SOAP subset needs.
//!
//! One lexer decides what is well-formed: the pull reader `Reader`, whose
//! events borrow from the document. The XML-RPC and SOAP decoders read
//! those events directly; [`crate::dom::parse`] builds its tree from them.

use std::borrow::Cow;
use std::fmt::Write as _;

use crate::WireError;

/// Maximum element nesting depth, for the same adversarial-input reason as
/// [`crate::json::MAX_DEPTH`].
pub const MAX_DEPTH: usize = 256;

/// Open elements whose names a reader keeps without allocating.
const INLINE_DEPTH: usize = 16;

/// Escape text for element content.
pub fn escape(text: &str) -> String {
    let mut out = String::with_capacity(text.len());
    escape_into(text, &mut out, false);
    out
}

/// Escape element text directly into a byte buffer (streaming encoders).
///
/// Byte-for-byte equivalent to [`escape`]: all escapable characters are
/// ASCII, so multi-byte UTF-8 sequences (every byte ≥ 0x80) pass through
/// untouched and the decimal in `&#N;` equals the byte value.
pub fn escape_text_into(text: &str, out: &mut Vec<u8>) {
    for &b in text.as_bytes() {
        match b {
            b'<' => out.extend_from_slice(b"&lt;"),
            b'>' => out.extend_from_slice(b"&gt;"),
            b'&' => out.extend_from_slice(b"&amp;"),
            b if b < 0x20 && b != b'\n' && b != b'\t' && b != b'\r' => {
                use std::io::Write as _;
                let _ = write!(out, "&#{b};");
            }
            b => out.push(b),
        }
    }
}

pub(crate) fn escape_into(text: &str, out: &mut String, attr: bool) {
    for c in text.chars() {
        match c {
            '<' => out.push_str("&lt;"),
            '>' => out.push_str("&gt;"),
            '&' => out.push_str("&amp;"),
            '"' if attr => out.push_str("&quot;"),
            c if (c as u32) < 0x20 && c != '\n' && c != '\t' && c != '\r' => {
                // XML 1.0 forbids raw control characters; use a numeric
                // reference so binary-ish strings survive (decoders vary, we
                // decode them back).
                let _ = write!(out, "&#{};", c as u32);
            }
            c => out.push(c),
        }
    }
}

/// What [`Reader::next`] found.
pub(crate) enum Event<'a> {
    /// A start tag. A `<name/>` element's `End` follows at once.
    Start(Tag<'a>),
    /// The end of the innermost open element.
    End,
    /// The text between two tags, never empty: entities decoded, CDATA and
    /// text around a comment or PI merged, borrowed unless that copied it.
    Text(Cow<'a, str>),
}

/// A start tag.
pub(crate) struct Tag<'a> {
    /// The element's name as written.
    pub(crate) name: &'a str,
    /// The name with any namespace prefix removed.
    pub(crate) local: &'a str,
    /// The attribute list as written, already checked by the reader.
    pub(crate) attrs: &'a str,
}

/// A pull reader over one document: [`Reader::root`]'s start tag, then
/// [`Reader::next`]'s events up to the root's end. Everything that makes a
/// document well-formed or not is decided here — tag matching, entities,
/// comments, PIs, CDATA, the DOCTYPE skip, [`MAX_DEPTH`] and what may
/// follow the root — so every consumer accepts the same documents.
pub(crate) struct Reader<'a> {
    cursor: Cursor<'a>,
    /// The open elements' names, outermost first: the first [`INLINE_DEPTH`]
    /// here, so that ordinary documents allocate nothing, the rest in `deeper`.
    open: [&'a str; INLINE_DEPTH],
    deeper: Vec<&'a str>,
    depth: usize,
    /// The last start tag was `<name/>`: its `End` comes next.
    empty: bool,
}

impl<'a> Reader<'a> {
    pub(crate) fn new(text: &'a str) -> Self {
        Reader {
            cursor: Cursor { text, pos: 0 },
            open: [""; INLINE_DEPTH],
            deeper: Vec::new(),
            depth: 0,
            empty: false,
        }
    }

    /// Read the prolog and the root's start tag.
    pub(crate) fn root(&mut self) -> Result<Tag<'a>, WireError> {
        self.cursor.skip_misc(true)?;
        self.start()
    }

    /// The next event inside the root. The root's `End` is returned only
    /// once nothing but comments, PIs and whitespace follows it; after
    /// that, every call returns `End`.
    #[inline]
    pub(crate) fn next(&mut self) -> Result<Event<'a>, WireError> {
        if std::mem::take(&mut self.empty) {
            return self.close();
        }
        if self.depth == 0 {
            return Ok(Event::End);
        }
        let mut text = Cow::Borrowed("");
        loop {
            let rest = self.cursor.rest();
            match rest.as_bytes() {
                [] => {
                    return Err(WireError::parse(format!(
                        "EOF inside element <{}>",
                        self.innermost()
                    )))
                }
                [b'<', b'!', ..] if rest.starts_with("<!--") => self.cursor.skip_past("-->")?,
                [b'<', b'!', ..] if rest.starts_with("<![CDATA[") => {
                    let cdata = &rest["<![CDATA[".len()..];
                    let len =
                        find(cdata, "]]>").ok_or_else(|| WireError::parse("unterminated CDATA"))?;
                    join(&mut text, Cow::Borrowed(&cdata[..len]));
                    self.cursor.pos += "<![CDATA[".len() + len + "]]>".len();
                }
                [b'<', b'?', ..] => self.cursor.skip_past("?>")?,
                [b'<', ..] if !text.is_empty() => return Ok(Event::Text(text)),
                [b'<', b'/', ..] => return self.end(),
                [b'<', ..] => return self.start().map(Event::Start),
                _ => {
                    let len = rest.bytes().position(|b| b == b'<').unwrap_or(rest.len());
                    join(&mut text, decode_entities(&rest[..len])?);
                    self.cursor.pos += len;
                    // Only a comment, PI or CDATA section can extend the run.
                    if !matches!(rest.as_bytes().get(len + 1), Some(b'!' | b'?')) {
                        return Ok(Event::Text(text));
                    }
                }
            }
        }
    }

    /// The local name of the innermost open element's next child, the text
    /// before it skipped, or `None` once that element has ended.
    #[inline]
    pub(crate) fn child(&mut self) -> Result<Option<&'a str>, WireError> {
        loop {
            match self.next()? {
                Event::Start(tag) => return Ok(Some(tag.local)),
                Event::Text(_) => {}
                Event::End => return Ok(None),
            }
        }
    }

    /// Read past the end of the innermost open element.
    pub(crate) fn skip(&mut self) -> Result<(), WireError> {
        while self.child()?.is_some() {
            self.skip()?;
        }
        Ok(())
    }

    /// Read past the end of the root, and so check the whole document.
    pub(crate) fn finish(&mut self) -> Result<(), WireError> {
        while self.depth > 0 {
            self.skip()?;
        }
        Ok(())
    }

    /// The rest of the innermost open element's direct text, child
    /// elements skipped: what the tree's `text_content` gives.
    pub(crate) fn text(&mut self) -> Result<Cow<'a, str>, WireError> {
        let mut text = Cow::Borrowed("");
        loop {
            match self.next()? {
                Event::Start(_) => self.skip()?,
                Event::Text(more) => join(&mut text, more),
                Event::End => return Ok(text),
            }
        }
    }

    fn innermost(&self) -> &'a str {
        self.deeper
            .last()
            .copied()
            .unwrap_or_else(|| self.open[self.depth - 1])
    }

    /// The start tag at the cursor; its element becomes the innermost.
    #[inline]
    fn start(&mut self) -> Result<Tag<'a>, WireError> {
        if self.depth > MAX_DEPTH {
            return Err(WireError::parse("maximum XML nesting depth exceeded"));
        }
        if self.cursor.peek() != Some(b'<') {
            return Err(WireError::parse(format!(
                "expected '<' at offset {}",
                self.cursor.pos
            )));
        }
        self.cursor.pos += 1;
        let (name, local) = self.cursor.name()?;
        let from = self.cursor.pos;
        if self.cursor.peek() != Some(b'>') {
            while self.cursor.attribute()?.is_some() {}
        }
        let attrs = &self.cursor.text[from..self.cursor.pos];
        match self.cursor.peek() {
            Some(b'>') => self.cursor.pos += 1,
            Some(_) if self.cursor.rest().starts_with("/>") => {
                self.cursor.pos += 2;
                self.empty = true;
            }
            Some(_) => return Err(WireError::parse("expected '>' after '/'")),
            None => return Err(WireError::parse("EOF inside start tag")),
        }
        match self.open.get_mut(self.depth) {
            Some(slot) => *slot = name,
            None => self.deeper.push(name),
        }
        self.depth += 1;
        Ok(Tag { name, local, attrs })
    }

    /// The end tag at the cursor, which must be the innermost element's.
    #[inline]
    fn end(&mut self) -> Result<Event<'a>, WireError> {
        self.cursor.pos += 2;
        let open = self.innermost();
        let rest = self.cursor.rest();
        // `Cursor::name`'s scan compared with `open`, without the scan.
        let next = rest.as_bytes().get(open.len());
        if rest.starts_with(open) && !next.is_some_and(|&b| NAME_BYTES[b as usize]) {
            self.cursor.pos += open.len();
        } else {
            let (name, _) = self.cursor.name()?;
            return Err(WireError::parse(format!(
                "mismatched end tag: expected </{open}>, found </{name}>"
            )));
        }
        self.cursor.skip_ws();
        if self.cursor.peek() != Some(b'>') {
            return Err(WireError::parse("expected '>' in end tag"));
        }
        self.cursor.pos += 1;
        self.close()
    }

    /// End the innermost element; ending the root ends the document.
    #[inline]
    fn close(&mut self) -> Result<Event<'a>, WireError> {
        self.deeper.pop();
        self.depth -= 1;
        if self.depth == 0 {
            self.cursor.skip_misc(false)?;
            if !self.cursor.rest().is_empty() {
                return Err(WireError::parse(format!(
                    "trailing content after root element at offset {}",
                    self.cursor.pos
                )));
            }
        }
        Ok(Event::End)
    }
}

/// The bytes a name is made of: ASCII letters and digits, `:_-.`, and
/// every byte of a non-ASCII character.
const NAME_BYTES: [bool; 256] = {
    let mut table = [false; 256];
    let mut b = 0;
    while b < 256 {
        let byte = b as u8;
        table[b] = byte.is_ascii_alphanumeric()
            || matches!(byte, b':' | b'_' | b'-' | b'.')
            || byte >= 0x80;
        b += 1;
    }
    table
};

/// A position in a document, and the lexing the reader's constructs share.
pub(crate) struct Cursor<'a> {
    pub(crate) text: &'a str,
    pub(crate) pos: usize,
}

impl<'a> Cursor<'a> {
    fn rest(&self) -> &'a str {
        &self.text[self.pos..]
    }

    fn peek(&self) -> Option<u8> {
        self.text.as_bytes().get(self.pos).copied()
    }

    fn skip_ws(&mut self) {
        while matches!(self.peek(), Some(b' ' | b'\t' | b'\r' | b'\n')) {
            self.pos += 1;
        }
    }

    fn skip_past(&mut self, end: &str) -> Result<(), WireError> {
        let off = find(self.rest(), end)
            .ok_or_else(|| WireError::parse(format!("unterminated construct, expected {end:?}")))?;
        self.pos += off + end.len();
        Ok(())
    }

    /// Skip whitespace, comments and PIs — and, before the root, a DOCTYPE.
    fn skip_misc(&mut self, before_root: bool) -> Result<(), WireError> {
        loop {
            self.skip_ws();
            let rest = self.rest();
            if rest.starts_with("<?") {
                self.skip_past("?>")?;
            } else if rest.starts_with("<!--") {
                self.skip_past("-->")?;
            } else if before_root && rest.starts_with("<!DOCTYPE") {
                // Skip to the matching '>' accounting for an internal subset.
                self.pos += "<!DOCTYPE".len();
                let mut depth = 1usize;
                while depth > 0 {
                    match self.peek() {
                        Some(b'<') => depth += 1,
                        Some(b'>') => depth -= 1,
                        Some(_) => {}
                        None => return Err(WireError::parse("unterminated DOCTYPE")),
                    }
                    self.pos += 1;
                }
            } else {
                return Ok(());
            }
        }
    }

    /// The name at the cursor, and its local part (after its last `:`).
    #[inline]
    fn name(&mut self) -> Result<(&'a str, &'a str), WireError> {
        let rest = self.rest();
        let (mut len, mut local) = (0, 0);
        for &b in rest.as_bytes() {
            if !NAME_BYTES[b as usize] {
                break;
            }
            len += 1;
            if b == b':' {
                local = len;
            }
        }
        if len == 0 {
            return Err(WireError::parse(format!(
                "expected name at offset {}",
                self.pos
            )));
        }
        self.pos += len;
        Ok((&rest[..len], &rest[local..len]))
    }

    /// The next `name="value"` of a start tag, or `None` at the tag's `/`
    /// or `>` or at the end of the text.
    pub(crate) fn attribute(&mut self) -> Result<Option<(&'a str, Cow<'a, str>)>, WireError> {
        self.skip_ws();
        if matches!(self.peek(), None | Some(b'/' | b'>')) {
            return Ok(None);
        }
        let (name, _) = self.name()?;
        self.skip_ws();
        if self.peek() != Some(b'=') {
            return Err(WireError::parse(format!(
                "expected '=' after attribute {name:?}"
            )));
        }
        self.pos += 1;
        self.skip_ws();
        let quote = match self.peek() {
            Some(q @ (b'"' | b'\'')) => q as char,
            _ => return Err(WireError::parse("expected quoted attribute value")),
        };
        self.pos += 1;
        let len = self
            .rest()
            .find(quote)
            .ok_or_else(|| WireError::parse("unterminated attribute value"))?;
        let raw = &self.rest()[..len];
        self.pos += len + 1;
        Ok(Some((name, decode_entities(raw)?)))
    }
}

/// `str::find` for XML syntax's short needles, with no searcher to set up.
fn find(haystack: &str, needle: &str) -> Option<usize> {
    let (bytes, first) = (haystack.as_bytes(), needle.as_bytes()[0]);
    (0..bytes.len()).find(|&at| bytes[at] == first && bytes[at..].starts_with(needle.as_bytes()))
}

/// Add `more` to `text`, copying only to join two non-empty pieces.
fn join<'a>(text: &mut Cow<'a, str>, more: Cow<'a, str>) {
    if text.is_empty() {
        *text = more;
    } else if !more.is_empty() {
        text.to_mut().push_str(&more);
    }
}

/// Decode the five predefined entities and numeric character references.
fn decode_entities(text: &str) -> Result<Cow<'_, str>, WireError> {
    if !text.as_bytes().contains(&b'&') {
        return Ok(Cow::Borrowed(text));
    }
    let mut out = String::with_capacity(text.len());
    let mut rest = text;
    while let Some(amp) = rest.find('&') {
        out.push_str(&rest[..amp]);
        rest = &rest[amp..];
        let semi = rest
            .find(';')
            .ok_or_else(|| WireError::parse("unterminated entity reference"))?;
        let entity = &rest[1..semi];
        match entity {
            "lt" => out.push('<'),
            "gt" => out.push('>'),
            "amp" => out.push('&'),
            "apos" => out.push('\''),
            "quot" => out.push('"'),
            _ if entity.starts_with("#x") || entity.starts_with("#X") => {
                let cp = u32::from_str_radix(&entity[2..], 16)
                    .map_err(|_| WireError::parse(format!("bad char ref &{entity};")))?;
                out.push(
                    char::from_u32(cp)
                        .ok_or_else(|| WireError::parse(format!("invalid char ref &{entity};")))?,
                );
            }
            _ if entity.starts_with('#') => {
                let cp = entity[1..]
                    .parse::<u32>()
                    .map_err(|_| WireError::parse(format!("bad char ref &{entity};")))?;
                out.push(
                    char::from_u32(cp)
                        .ok_or_else(|| WireError::parse(format!("invalid char ref &{entity};")))?,
                );
            }
            _ => {
                // Unknown named entities would require a DTD; reject.
                return Err(WireError::parse(format!("unknown entity &{entity};")));
            }
        }
        rest = &rest[semi + 1..];
    }
    out.push_str(rest);
    Ok(Cow::Owned(out))
}
