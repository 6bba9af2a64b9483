//! Conditional functional dependencies `φ = (X → A, (tp ‖ pA))`.
//!
//! A CFD pairs an embedded FD `X → A` with a pattern tuple over `X ∪ {A}`.
//! Following Section 2.1.3, a CFD is *constant* when every pattern value
//! (including the RHS) is a constant, and *variable* when the RHS pattern
//! is the unnamed variable `_`. Lemma 1 shows every set of CFDs is
//! equivalent to a set of constant plus variable CFDs; the normalization
//! lives in [`crate::cover`].
//!
//! ## Rule wire-format
//!
//! [`Cfd::display`] and [`parse_cfd`] are inverses — the rendered text
//! is the *stable wire-format* rule files, `cfd discover` output and
//! `cfd check` input share (see `CanonicalCover::to_text` /
//! `from_text`). The grammar is the paper's syntax,
//!
//! ```text
//! ([A, B] -> C, (v₁, v₂ || v₃))
//! ```
//!
//! with one addition so that *any* constant survives the round trip: a
//! pattern value is written bare when it is unambiguous, and wrapped in
//! double quotes otherwise. Quoting is required when the value is
//! empty, is exactly `_` (which bare denotes the unnamed variable),
//! contains one of `" \ , | ( )`, a newline, or leading/trailing
//! whitespace. Inside quotes, `\"`, `\\`, `\n`, `\r` and `\t` escape
//! the quote, backslash, and line/tab characters. Attribute names come
//! from the schema and are not escaped; names containing `[`, `]`,
//! `,`, `(` or `->` are not representable.

use crate::attrset::AttrSet;
use crate::pattern::{PVal, Pattern};
use crate::relation::Relation;
use crate::schema::AttrId;

/// A conditional functional dependency `(X → A, (tp ‖ pA))`.
#[derive(Clone, PartialEq, Eq, Hash, PartialOrd, Ord, Debug)]
pub struct Cfd {
    /// The LHS pattern `(X, tp[X])`.
    lhs: Pattern,
    /// The RHS attribute `A`.
    rhs_attr: AttrId,
    /// The RHS pattern value `tp[A]`.
    rhs_val: PVal,
}

/// The classification of Section 2.1.3.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum CfdClass {
    /// All pattern values, including the RHS, are constants.
    Constant,
    /// The RHS pattern value is `_`.
    Variable,
    /// Constant RHS with at least one `_` on the LHS; Lemma 1 reduces
    /// these to constant CFDs (see [`crate::cover::normalize_cfd`]).
    Mixed,
}

impl Cfd {
    /// Builds a CFD from its parts.
    pub fn new(lhs: Pattern, rhs_attr: AttrId, rhs_val: PVal) -> Cfd {
        Cfd {
            lhs,
            rhs_attr,
            rhs_val,
        }
    }

    /// Convenience constructor: a *constant* CFD `(X → A, (tp ‖ a))` from
    /// an all-constant LHS pattern.
    pub fn constant(lhs: Pattern, rhs_attr: AttrId, rhs_code: u32) -> Cfd {
        debug_assert!(lhs.is_all_const());
        Cfd::new(lhs, rhs_attr, PVal::Const(rhs_code))
    }

    /// Convenience constructor: a *variable* CFD `(X → A, (tp ‖ _))`.
    pub fn variable(lhs: Pattern, rhs_attr: AttrId) -> Cfd {
        Cfd::new(lhs, rhs_attr, PVal::Var)
    }

    /// Convenience constructor: a plain FD `X → A` seen as the CFD
    /// `(X → A, (_, …, _ ‖ _))`.
    pub fn fd(lhs_attrs: AttrSet, rhs_attr: AttrId) -> Cfd {
        Cfd::new(Pattern::wildcards(lhs_attrs), rhs_attr, PVal::Var)
    }

    /// The LHS pattern `(X, tp[X])`.
    #[inline]
    pub fn lhs(&self) -> &Pattern {
        &self.lhs
    }

    /// The LHS attribute set `X`.
    #[inline]
    pub fn lhs_attrs(&self) -> AttrSet {
        self.lhs.attrs()
    }

    /// The RHS attribute `A`.
    #[inline]
    pub fn rhs_attr(&self) -> AttrId {
        self.rhs_attr
    }

    /// The RHS pattern value `tp[A]`.
    #[inline]
    pub fn rhs_val(&self) -> PVal {
        self.rhs_val
    }

    /// True iff `A ∈ X` (Section 2.2.1). Trivial CFDs are excluded from
    /// canonical covers.
    pub fn is_trivial(&self) -> bool {
        self.lhs.attrs().contains(self.rhs_attr)
    }

    /// Classifies the CFD (Section 2.1.3).
    pub fn class(&self) -> CfdClass {
        match self.rhs_val {
            PVal::Var => CfdClass::Variable,
            PVal::Const(_) => {
                if self.lhs.is_all_const() {
                    CfdClass::Constant
                } else {
                    CfdClass::Mixed
                }
            }
        }
    }

    /// True iff the CFD is a constant CFD.
    pub fn is_constant(&self) -> bool {
        self.class() == CfdClass::Constant
    }

    /// True iff the CFD is a plain FD (all pattern values are `_`).
    pub fn is_plain_fd(&self) -> bool {
        self.rhs_val == PVal::Var && self.lhs.is_all_wildcard()
    }

    /// Renders the CFD in the wire-format (the paper's syntax with
    /// quoting — see the module docs), resolving attribute names and
    /// dictionary codes against `rel`, e.g.
    /// `([CC, AC] -> CT, (01, 908 || MH))`. Guaranteed to parse back to
    /// `self` through [`parse_cfd`] on the same relation.
    pub fn display(&self, rel: &Relation) -> String {
        let schema = rel.schema();
        let mut out = String::from("(");
        out.push_str(&schema.fmt_attrs(self.lhs.attrs()));
        out.push_str(" -> ");
        out.push_str(schema.name(self.rhs_attr));
        out.push_str(", (");
        for (i, (a, v)) in self.lhs.iter().enumerate() {
            if i > 0 {
                out.push_str(", ");
            }
            match v {
                PVal::Const(c) => push_value(&mut out, rel.column(a).dict().value(c)),
                PVal::Var => out.push('_'),
            }
        }
        out.push_str(" || ");
        match self.rhs_val {
            PVal::Const(c) => push_value(&mut out, rel.column(self.rhs_attr).dict().value(c)),
            PVal::Var => out.push('_'),
        }
        out.push_str("))");
        out
    }

    /// Serializes the CFD as a JSON object with both the wire-format
    /// text and the structured parts:
    ///
    /// ```json
    /// {"text": "([CC] -> CT, (01 || MH))", "class": "constant",
    ///  "lhs": [{"attr": "CC", "value": "01"}],
    ///  "rhs": {"attr": "CT", "value": "MH"}}
    /// ```
    ///
    /// A wildcard pattern value serializes as `null`.
    pub fn to_json(&self, rel: &Relation) -> crate::json::Json {
        use crate::json::Json;
        let pv = |a: AttrId, v: PVal| -> Json {
            match v {
                PVal::Const(c) => Json::from(rel.column(a).dict().value(c)),
                PVal::Var => Json::Null,
            }
        };
        let lhs = self.lhs.iter().map(|(a, v)| {
            Json::obj([
                ("attr", Json::from(rel.schema().name(a))),
                ("value", pv(a, v)),
            ])
        });
        Json::obj([
            ("text", Json::from(self.display(rel))),
            (
                "class",
                Json::from(match self.class() {
                    CfdClass::Constant => "constant",
                    CfdClass::Variable => "variable",
                    CfdClass::Mixed => "mixed",
                }),
            ),
            ("lhs", Json::arr(lhs)),
            (
                "rhs",
                Json::obj([
                    ("attr", Json::from(rel.schema().name(self.rhs_attr))),
                    ("value", pv(self.rhs_attr, self.rhs_val)),
                ]),
            ),
        ])
    }
}

/// True iff `v` must be quoted to survive the wire format (see the
/// module docs for the rule).
fn needs_quoting(v: &str) -> bool {
    v.is_empty()
        || v == "_"
        || v.contains(['"', '\\', ',', '|', '(', ')', '\n', '\r', '\t'])
        || v.chars().next().is_some_and(char::is_whitespace)
        || v.chars().last().is_some_and(char::is_whitespace)
}

/// Appends a pattern constant in wire syntax: bare when unambiguous,
/// quoted with backslash escapes otherwise.
fn push_value(out: &mut String, v: &str) {
    if !needs_quoting(v) {
        out.push_str(v);
        return;
    }
    out.push('"');
    for ch in v.chars() {
        match ch {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c => out.push(c),
        }
    }
    out.push('"');
}

/// A pattern-value token: its (unescaped) text plus whether it was
/// quoted — a bare `_` is the unnamed variable, a quoted `"_"` is the
/// one-character constant.
struct PTok {
    text: String,
    quoted: bool,
}

impl PTok {
    fn is_wildcard(&self) -> bool {
        !self.quoted && self.text == "_"
    }
}

/// Splits the pattern region `v₁, …, vₙ || v` into LHS tokens and the
/// RHS token, honoring the quoting rules of the wire format.
fn split_pattern(pat: &str) -> std::result::Result<(Vec<PTok>, PTok), String> {
    let cs: Vec<char> = pat.chars().collect();
    let n = cs.len();

    fn skip_ws(cs: &[char], i: &mut usize) {
        while cs.get(*i).is_some_and(|c| c.is_whitespace()) {
            *i += 1;
        }
    }

    /// Reads one token at `i` (which must point at a non-ws char). Bare
    /// tokens run until a separator (`,` or `|`) or the end, with
    /// trailing whitespace trimmed.
    fn read_token(cs: &[char], i: &mut usize) -> std::result::Result<PTok, String> {
        if cs[*i] == '"' {
            *i += 1;
            let mut text = String::new();
            loop {
                match cs.get(*i) {
                    None => return Err("unterminated quoted value".into()),
                    Some('"') => {
                        *i += 1;
                        return Ok(PTok { text, quoted: true });
                    }
                    Some('\\') => {
                        *i += 1;
                        let e = cs
                            .get(*i)
                            .ok_or_else(|| "truncated escape in quoted value".to_string())?;
                        text.push(match e {
                            '"' => '"',
                            '\\' => '\\',
                            'n' => '\n',
                            'r' => '\r',
                            't' => '\t',
                            other => {
                                return Err(format!("invalid escape \\{other} in quoted value"))
                            }
                        });
                        *i += 1;
                    }
                    Some(&c) => {
                        text.push(c);
                        *i += 1;
                    }
                }
            }
        } else {
            let mut text = String::new();
            while *i < cs.len() && cs[*i] != ',' && cs[*i] != '|' {
                text.push(cs[*i]);
                *i += 1;
            }
            text.truncate(text.trim_end().len());
            Ok(PTok {
                text,
                quoted: false,
            })
        }
    }

    let mut lhs: Vec<PTok> = Vec::new();
    let mut i = 0usize;
    loop {
        skip_ws(&cs, &mut i);
        match cs.get(i) {
            None => return Err("pattern must contain '||'".into()),
            // start of the '||' separator: legal only before the first
            // token (empty LHS) — after a ',' a token is expected, and
            // read_token would have consumed anything else
            Some('|') => break,
            Some(_) => {}
        }
        lhs.push(read_token(&cs, &mut i)?);
        skip_ws(&cs, &mut i);
        match cs.get(i) {
            Some(',') => i += 1,
            Some('|') => break,
            None => return Err("pattern must contain '||'".into()),
            Some(c) => return Err(format!("unexpected {c:?} after pattern value")),
        }
    }
    if !(cs.get(i) == Some(&'|') && cs.get(i + 1) == Some(&'|')) {
        return Err("pattern must contain '||'".into());
    }
    i += 2;
    skip_ws(&cs, &mut i);
    if i >= n {
        return Err("missing RHS pattern value".into());
    }
    let rhs = read_token(&cs, &mut i)?;
    skip_ws(&cs, &mut i);
    if i < n {
        return Err(format!(
            "unexpected {:?} after RHS pattern value",
            cs[i..].iter().collect::<String>()
        ));
    }
    Ok((lhs, rhs))
}

/// The unresolved form of a parsed CFD: `(attribute, pattern token)`
/// pairs for the LHS, then the RHS attribute and its token.
type RawCfd = (Vec<(AttrId, PTok)>, AttrId, PTok);

/// The syntactic half of [`parse_cfd`]: splits the wire format into
/// `(attribute, pattern token)` pairs plus the RHS, leaving value
/// resolution to the caller.
fn parse_cfd_syntax(schema: &crate::schema::Schema, text: &str) -> crate::error::Result<RawCfd> {
    use crate::error::Error;
    let fail = |m: &str| Error::Parse(format!("{m}: {text:?}"));

    let s = text.trim();
    let s = s
        .strip_prefix('(')
        .and_then(|s| s.strip_suffix(')'))
        .ok_or_else(|| fail("CFD must be wrapped in parentheses"))?;
    // the pattern is the parenthesized tail; the head (`[X] -> A`) precedes
    // the first '(' of the remainder (attribute lists use brackets, and a
    // value containing '(' is always quoted — inside the pattern parens)
    let open = s.find('(').ok_or_else(|| fail("missing pattern"))?;
    let head = s[..open].trim().trim_end_matches(',').trim();
    let pat = &s[open..];
    let (lhs_txt, rhs_txt) = head
        .split_once("->")
        .ok_or_else(|| fail("missing '->' in embedded FD"))?;

    let lhs_txt = lhs_txt.trim();
    let lhs_names: Vec<&str> =
        if let Some(inner) = lhs_txt.strip_prefix('[').and_then(|t| t.strip_suffix(']')) {
            inner
                .split(',')
                .map(str::trim)
                .filter(|t| !t.is_empty())
                .collect()
        } else if lhs_txt.is_empty() {
            Vec::new()
        } else {
            vec![lhs_txt]
        };
    let mut lhs_attrs = Vec::with_capacity(lhs_names.len());
    for n in &lhs_names {
        lhs_attrs.push(schema.require(n)?);
    }
    let rhs_attr = schema.require(rhs_txt.trim())?;

    let pat = pat.trim();
    let pat = pat
        .strip_prefix('(')
        .and_then(|p| p.strip_suffix(')'))
        .ok_or_else(|| fail("pattern must be wrapped in parentheses"))?;
    let (lhs_vals, rhs_val) = split_pattern(pat).map_err(|m| fail(&m))?;
    if lhs_vals.len() != lhs_attrs.len() {
        return Err(fail("LHS pattern width differs from LHS attribute count"));
    }

    let pairs = lhs_attrs.into_iter().zip(lhs_vals).collect();
    Ok((pairs, rhs_attr, rhs_val))
}

/// Parses a CFD in the `display` syntax against a relation's dictionaries,
/// e.g. `([CC, AC] -> CT, (01, 908 || MH))`. Intended for tests and
/// examples; values must already occur in the relation (so they have a
/// dictionary code), and `_` denotes the unnamed variable. See
/// [`parse_cfd_interning`] when rule constants may legitimately precede
/// the data.
pub fn parse_cfd(rel: &Relation, text: &str) -> crate::error::Result<Cfd> {
    use crate::error::Error;
    let (raw_pairs, rhs_attr, rhs_raw) = parse_cfd_syntax(rel.schema(), text)?;
    let resolve = |a: AttrId, tok: &PTok| -> crate::error::Result<PVal> {
        if tok.is_wildcard() {
            Ok(PVal::Var)
        } else {
            rel.column(a)
                .dict()
                .code(&tok.text)
                .map(PVal::Const)
                .ok_or_else(|| {
                    Error::Parse(format!(
                        "value {:?} does not occur in attribute {}",
                        tok.text,
                        rel.schema().name(a)
                    ))
                })
        }
    };
    let mut pairs = Vec::with_capacity(raw_pairs.len());
    for (a, v) in &raw_pairs {
        pairs.push((*a, resolve(*a, v)?));
    }
    let rhs_val = resolve(rhs_attr, &rhs_raw)?;
    Ok(Cfd::new(Pattern::from_pairs(pairs), rhs_attr, rhs_val))
}

/// Like [`parse_cfd`], but *interns* constants that do not occur in the
/// relation yet instead of rejecting them (extending the relation's
/// dictionaries in place; existing codes stay stable). This is the rule
/// loader for streaming contexts: a monitoring rule like
/// `(AC -> CT, (131 || EDI))` must be enforceable even when the warm
/// data contains no `131` tuple yet — its LHS simply matches nothing
/// until one arrives.
pub fn parse_cfd_interning(rel: &mut Relation, text: &str) -> crate::error::Result<Cfd> {
    let schema = rel.schema().clone();
    let (raw_pairs, rhs_attr, rhs_raw) = parse_cfd_syntax(&schema, text)?;
    let mut pairs = Vec::with_capacity(raw_pairs.len());
    for (a, v) in raw_pairs {
        let pv = if v.is_wildcard() {
            PVal::Var
        } else {
            PVal::Const(rel.intern_value(a, &v.text))
        };
        pairs.push((a, pv));
    }
    let rhs_val = if rhs_raw.is_wildcard() {
        PVal::Var
    } else {
        PVal::Const(rel.intern_value(rhs_attr, &rhs_raw.text))
    };
    Ok(Cfd::new(Pattern::from_pairs(pairs), rhs_attr, rhs_val))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::relation::relation_from_rows;
    use crate::schema::Schema;

    fn rel() -> Relation {
        let schema = Schema::new(["CC", "AC", "CT"]).unwrap();
        relation_from_rows(schema, &[vec!["01", "908", "MH"], vec!["44", "131", "EDI"]]).unwrap()
    }

    #[test]
    fn classification() {
        let r = rel();
        let c01 = r.column(0).dict().code("01").unwrap();
        let mh = r.column(2).dict().code("MH").unwrap();

        let constant = Cfd::constant(Pattern::from_pairs([(0, PVal::Const(c01))]), 2, mh);
        assert_eq!(constant.class(), CfdClass::Constant);
        assert!(constant.is_constant());

        let variable = Cfd::variable(
            Pattern::from_pairs([(0, PVal::Const(c01)), (1, PVal::Var)]),
            2,
        );
        assert_eq!(variable.class(), CfdClass::Variable);
        assert!(!variable.is_plain_fd());

        let fd = Cfd::fd(AttrSet::from_iter([0, 1]), 2);
        assert!(fd.is_plain_fd());
        assert_eq!(fd.class(), CfdClass::Variable);

        let mixed = Cfd::new(
            Pattern::from_pairs([(0, PVal::Const(c01)), (1, PVal::Var)]),
            2,
            PVal::Const(mh),
        );
        assert_eq!(mixed.class(), CfdClass::Mixed);
    }

    #[test]
    fn trivial_detection() {
        let t = Cfd::variable(Pattern::from_pairs([(2, PVal::Var)]), 2);
        assert!(t.is_trivial());
        let nt = Cfd::variable(Pattern::from_pairs([(0, PVal::Var)]), 2);
        assert!(!nt.is_trivial());
    }

    #[test]
    fn display_round_trip() {
        let r = rel();
        let c01 = r.column(0).dict().code("01").unwrap();
        let mh = r.column(2).dict().code("MH").unwrap();
        let cfd = Cfd::new(
            Pattern::from_pairs([(0, PVal::Const(c01)), (1, PVal::Var)]),
            2,
            PVal::Const(mh),
        );
        let txt = cfd.display(&r);
        assert_eq!(txt, "([CC, AC] -> CT, (01, _ || MH))");
        let parsed = parse_cfd(&r, &txt).unwrap();
        assert_eq!(parsed, cfd);
    }

    #[test]
    fn parse_paper_syntax() {
        let r = rel();
        let cfd = parse_cfd(&r, "([CC, AC] -> CT, (01, 908 || MH))").unwrap();
        assert!(cfd.is_constant());
        assert_eq!(cfd.lhs_attrs(), AttrSet::from_iter([0, 1]));
        // empty LHS
        let c = parse_cfd(&r, "([] -> CT, ( || MH))").unwrap();
        assert!(c.lhs_attrs().is_empty());
        // single attribute without brackets
        let s = parse_cfd(&r, "(AC -> CT, (131 || EDI))").unwrap();
        assert_eq!(s.lhs_attrs(), AttrSet::singleton(1));
        // errors
        assert!(parse_cfd(&r, "nonsense").is_err());
        assert!(parse_cfd(&r, "([CC] -> CT, (01, 908 || MH))").is_err());
        assert!(parse_cfd(&r, "([CC] -> CT, (99 || MH))").is_err());
        assert!(parse_cfd(&r, "([CC] -> ZZ, (01 || MH))").is_err());
    }

    #[test]
    fn parse_interning_accepts_unseen_constants() {
        let mut r = rel();
        let before = r.column(1).dict().code("555");
        assert_eq!(before, None, "555 must start out-of-dictionary");
        // a rule whose constants precede the data: parse_cfd rejects it,
        // the interning variant mints fresh codes for it
        assert!(parse_cfd(&r, "(AC -> CT, (555 || LA))").is_err());
        let cfd = parse_cfd_interning(&mut r, "(AC -> CT, (555 || LA))").unwrap();
        assert!(cfd.is_constant());
        let c555 = r.column(1).dict().code("555").unwrap();
        assert_eq!(cfd.lhs().get(1), Some(PVal::Const(c555)));
        // existing codes stayed stable, display round-trips
        assert_eq!(r.column(0).dict().code("01"), Some(0));
        assert_eq!(cfd.display(&r), "([AC] -> CT, (555 || LA))");
        // parsing the same rule again reuses the interned codes
        let again = parse_cfd_interning(&mut r, "(AC -> CT, (555 || LA))").unwrap();
        assert_eq!(again, cfd);
        // and the rule matches nothing until such a tuple arrives
        assert!(crate::satisfy::satisfies(&r, &cfd));
        // syntax errors still surface
        assert!(parse_cfd_interning(&mut r, "nonsense").is_err());
        assert!(parse_cfd_interning(&mut r, "([CC] -> ZZ, (01 || MH))").is_err());
    }

    #[test]
    fn display_quotes_ambiguous_constants() {
        let schema = Schema::new(["A", "B"]).unwrap();
        let nasty = [
            "_",
            "",
            "a,b",
            "x = y",
            " padded ",
            "pipe|pipe",
            "par(en)s",
            "quo\"te",
            "back\\slash",
            "line\nbreak",
            "tab\there",
        ];
        let rows: Vec<Vec<&str>> = nasty.iter().map(|&v| vec![v, "ok"]).collect();
        let r = relation_from_rows(schema, &rows).unwrap();
        for (i, &v) in nasty.iter().enumerate() {
            let cfd = Cfd::new(
                Pattern::from_pairs([(0, PVal::Const(i as u32))]),
                1,
                PVal::Const(0),
            );
            let txt = cfd.display(&r);
            let parsed = parse_cfd(&r, &txt).unwrap();
            assert_eq!(parsed, cfd, "round trip of constant {v:?} via {txt:?}");
        }
        // plain values stay unquoted; exotic ones are quoted
        let plain = Cfd::new(
            Pattern::from_pairs([(1, PVal::Const(0))]),
            0,
            PVal::Const(0),
        );
        assert_eq!(plain.display(&r), "([B] -> A, (ok || \"_\"))");
    }

    #[test]
    fn parse_rejects_wire_syntax_errors() {
        let r = rel();
        for bad in [
            "([CC] -> CT, (\"01 || MH))",      // unterminated quote
            "([CC] -> CT, (\"01\\x\" || MH))", // bad escape
            "([CC] -> CT, (01 |! MH))",        // broken separator
            "([CC] -> CT, (01 || MH, 44))",    // trailing junk after RHS
            "([CC] -> CT, (01 ||))",           // missing RHS value... ( || ) is width 0
        ] {
            assert!(parse_cfd(&r, bad).is_err(), "{bad:?} should fail");
        }
        // a quoted "_" is a constant, not the wildcard: CT has no "_"
        assert!(parse_cfd(&r, "([CC] -> CT, (01 || \"_\"))").is_err());
    }
}
