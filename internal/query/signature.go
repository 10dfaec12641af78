package query

import (
	"fmt"
	"strings"
)

// This file implements the canonical query-signature normalizer that
// keys the multi-tenant serving tier's compile cache and its consistent-
// hash shard ring. Two SQL texts that differ only in literal values,
// whitespace, comments, identifier/keyword case, IN-list arity, or a
// trailing semicolon canonicalize to the same string and therefore the
// same signature — the parameterized-sharing property classic plan
// caches rely on, so a herd of "same query, different constants"
// requests coalesces onto one compiled artifact.
//
// The normalizer is deliberately independent of the sqlparse package
// (which imports this one): it tokenizes just enough SQL to recognize
// identifiers, numeric and string literals, and operators, and it never
// needs a catalog — signatures must be computable before any binding
// work happens, on the serving hot path.

// Signature identifies a canonicalized query. The Hash keys caches and
// the shard ring; Canonical is the normalized text it was derived from
// (literals replaced by '?'), kept for observability and debugging.
type Signature struct {
	// Hash is the 64-bit FNV-1a hash of the canonical text, optionally
	// extended with bound parameters (see Extend).
	Hash uint64
	// Canonical is the normalized query text.
	Canonical string
}

// String renders the signature as a short hex key.
func (s Signature) String() string { return fmt.Sprintf("%016x", s.Hash) }

// Extend folds additional canonical parameters into the signature hash
// without touching the canonical text. The serving tier uses it to
// distinguish artifacts that share SQL but differ in compile-time
// inputs (error-prone-predicate sets, grid resolution, catalog scale):
// the Q91 dimensionality family, for example, shares one SQL body
// across five distinct artifacts. Extension order matters and must be
// applied consistently by every replica in a shard ring.
func (s Signature) Extend(parts ...string) Signature {
	h := s.Hash
	for _, p := range parts {
		h = fnvMix(h, p)
		h = fnvMix(h, "\x00") // unambiguous part separator
	}
	return Signature{Hash: h, Canonical: s.Canonical}
}

// ExtendUint64 folds raw 64-bit parameters into the signature hash,
// little-endian, each terminated by the same unambiguous separator
// Extend uses for strings. The serving tier's outcome cache uses it to
// grow an artifact signature into a full outcome key: the numeric
// request coordinates (grid point, worker count, fault seed, float
// bits of rate/λ, refinement epoch) extend the hash without paying a
// string formatting round-trip on the request hot path.
func (s Signature) ExtendUint64(parts ...uint64) Signature {
	h := s.Hash
	for _, p := range parts {
		for i := 0; i < 8; i++ {
			h ^= p & 0xff
			h *= 1099511628211
			p >>= 8
		}
		h = fnvMix(h, "\x00")
	}
	return Signature{Hash: h, Canonical: s.Canonical}
}

// Sign canonicalizes the SQL text and hashes it.
func Sign(sql string) (Signature, error) {
	c, err := Canonicalize(sql)
	if err != nil {
		return Signature{}, err
	}
	return Signature{Hash: fnvMix(fnvOffset, c), Canonical: c}, nil
}

const fnvOffset = uint64(14695981039346656037)

func fnvMix(h uint64, s string) uint64 {
	for i := 0; i < len(s); i++ {
		h ^= uint64(s[i])
		h *= 1099511628211
	}
	return h
}

// Canonicalize normalizes a SQL text: identifiers and keywords fold to
// lower case, every numeric and string literal becomes the parameter
// marker '?', IN-lists of literals collapse to a single parameter
// (arity is a literal detail, not a shape), '!=' normalizes to '<>',
// comments and the trailing semicolon disappear, and tokens are
// rejoined with single spaces ('.'-qualified names stay glued). It
// fails on characters outside the tokenizer's SQL subset, never on
// shape — canonicalization must not require a catalog or a full parse.
func Canonicalize(sql string) (string, error) {
	toks, err := sigTokens(sql)
	if err != nil {
		return "", err
	}
	if len(toks) == 0 {
		return "", fmt.Errorf("query: empty statement")
	}
	toks = collapseInLists(toks)
	var b strings.Builder
	for i, t := range toks {
		if i > 0 && !(t == "." || toks[i-1] == ".") {
			b.WriteByte(' ')
		}
		b.WriteString(t)
	}
	return b.String(), nil
}

// sigTokens lexes the text into canonical tokens: lower-cased
// identifiers, '?' for literals, and normalized operator symbols.
func sigTokens(src string) ([]string, error) {
	var toks []string
	pos := 0
	for pos < len(src) {
		c := src[pos]
		switch {
		case c == ' ' || c == '\t' || c == '\n' || c == '\r':
			pos++
		case c == '-' && pos+1 < len(src) && src[pos+1] == '-':
			for pos < len(src) && src[pos] != '\n' {
				pos++
			}
		case isSigIdentStart(c):
			start := pos
			for pos < len(src) && isSigIdentPart(src[pos]) {
				pos++
			}
			toks = append(toks, strings.ToLower(src[start:pos]))
		case c >= '0' && c <= '9',
			c == '.' && pos+1 < len(src) && src[pos+1] >= '0' && src[pos+1] <= '9' && !prevIsName(toks),
			c == '-' && pos+1 < len(src) && src[pos+1] >= '0' && src[pos+1] <= '9' && !prevIsValue(toks):
			pos = scanNumber(src, pos)
			toks = append(toks, "?")
		case c == '\'':
			end, err := scanString(src, pos)
			if err != nil {
				return nil, err
			}
			pos = end
			toks = append(toks, "?")
		default:
			tok, n, err := scanSymbol(src, pos)
			if err != nil {
				return nil, err
			}
			pos += n
			if tok != "" { // trailing ';' is dropped
				toks = append(toks, tok)
			}
		}
	}
	// A ';' may only appear at the end of the statement; scanSymbol drops
	// it, so nothing more to do here.
	return toks, nil
}

func isSigIdentStart(c byte) bool {
	return c == '_' || (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') || c >= 0x80
}

func isSigIdentPart(c byte) bool {
	return isSigIdentStart(c) || (c >= '0' && c <= '9')
}

// prevIsName reports whether the previous token is an identifier or
// qualifier dot, so "a.5" style input keeps the dot as a qualifier and
// ".5" after a name is not misread as a fractional literal.
func prevIsName(toks []string) bool {
	if len(toks) == 0 {
		return false
	}
	t := toks[len(toks)-1]
	return t == "." || isSigIdentStart(t[0])
}

// prevIsValue reports whether the previous token can end a value
// expression, in which case a following '-' is the (unsupported) binary
// minus rather than a negative-literal sign.
func prevIsValue(toks []string) bool {
	if len(toks) == 0 {
		return false
	}
	t := toks[len(toks)-1]
	return t == "?" || t == ")" || isSigIdentStart(t[0])
}

// scanNumber consumes an optionally signed decimal with an optional
// fraction and exponent, returning the position after it.
func scanNumber(src string, pos int) int {
	if src[pos] == '-' {
		pos++
	}
	digits := func() {
		for pos < len(src) && src[pos] >= '0' && src[pos] <= '9' {
			pos++
		}
	}
	digits()
	if pos < len(src) && src[pos] == '.' {
		pos++
		digits()
	}
	if pos < len(src) && (src[pos] == 'e' || src[pos] == 'E') {
		mark := pos
		pos++
		if pos < len(src) && (src[pos] == '+' || src[pos] == '-') {
			pos++
		}
		if pos < len(src) && src[pos] >= '0' && src[pos] <= '9' {
			digits()
		} else {
			pos = mark // "10e" — the e starts an identifier, not an exponent
		}
	}
	return pos
}

// scanString consumes a single-quoted SQL string, in which doubled single
// quotes escape one quote, returning the position after the closing quote.
func scanString(src string, pos int) (int, error) {
	pos++ // opening quote
	for pos < len(src) {
		if src[pos] == '\'' {
			if pos+1 < len(src) && src[pos+1] == '\'' {
				pos += 2 // escaped quote
				continue
			}
			return pos + 1, nil
		}
		pos++
	}
	return 0, fmt.Errorf("query: unterminated string literal")
}

// scanSymbol consumes one operator or punctuation token, normalizing
// '!=' to '<>' and dropping statement-terminating semicolons.
func scanSymbol(src string, pos int) (tok string, n int, err error) {
	if pos+2 <= len(src) {
		switch src[pos : pos+2] {
		case "<=", ">=", "<>":
			return src[pos : pos+2], 2, nil
		case "!=":
			return "<>", 2, nil
		}
	}
	switch c := src[pos]; c {
	case ',', '.', '*', '=', '<', '>', '(', ')':
		return string(c), 1, nil
	case '?':
		// Pre-parameterized text (and our own canonical output) carries
		// explicit markers; accepting them makes Canonicalize idempotent.
		return "?", 1, nil
	case ';':
		return "", 1, nil
	}
	return "", 0, fmt.Errorf("query: unexpected character %q at offset %d", src[pos], pos)
}

// collapseInLists rewrites "in ( ? , ? , ... )" runs to "in ( ? )", so
// IN-list arity — a literal detail — does not split signatures.
func collapseInLists(toks []string) []string {
	out := toks[:0:0]
	for i := 0; i < len(toks); i++ {
		out = append(out, toks[i])
		if toks[i] != "in" || i+1 >= len(toks) || toks[i+1] != "(" {
			continue
		}
		// Find a run of parameters and commas up to the closing paren.
		j := i + 2
		params := 0
		for ; j < len(toks); j++ {
			if toks[j] == "?" || toks[j] == "," {
				if toks[j] == "?" {
					params++
				}
				continue
			}
			break
		}
		if params > 0 && j < len(toks) && toks[j] == ")" {
			out = append(out, "(", "?", ")")
			i = j
		}
	}
	return out
}
