// Package sipmsg models SIP messages: the subset of RFC 3261 that the
// paper's testbed and the vids detectors need. It covers the six core
// methods (INVITE, ACK, BYE, CANCEL, REGISTER, OPTIONS), response
// status lines, the mandatory header fields (Via with branch, From/To
// with tags, Call-ID, CSeq, Contact, Max-Forwards, Content-Type,
// Content-Length, Expires), and message bodies (SDP). Parsing and
// serialization round-trip.
package sipmsg

import (
	"bytes"
	"fmt"
	"strconv"
	"strings"
)

// URI is a SIP URI of the form sip:user@host[:port].
type URI struct {
	User string
	Host string
	Port int // 0 means unspecified (default 5060)
}

// ParseURI parses "sip:user@host:port" and friends. The scheme must be
// "sip" (sips is out of scope: the testbed runs plain UDP).
//
//vids:nopanic parses untrusted wire input
func ParseURI(s string) (URI, error) {
	b := []byte(s)
	var p uriParts
	if err := scanURI(b, &p); err != nil {
		return URI{}, err
	}
	return p.uri(s, b), nil
}

// uriParts locates the pieces of a sip: URI as subslices of the
// scanned bytes.
type uriParts struct {
	user, host []byte
	port       int
}

// scanURI is the URI rule: ParseURI materializes its result, Parse
// and Scan run it in place on the wire bytes. It fills p (which the
// caller zeroes) and leaves it partial on error.
func scanURI(b []byte, p *uriParts) error {
	b = bytes.TrimSpace(b)
	// Strip enclosing angle brackets if present.
	if len(b) >= 2 && b[0] == '<' && b[len(b)-1] == '>' {
		b = b[1 : len(b)-1]
	}
	if len(b) < 4 || string(b[:4]) != "sip:" {
		return fmt.Errorf("sipmsg: URI %q: missing sip: scheme", b) //vids:alloc-ok error path: malformed URI aborts parsing
	}
	rest := b[4:]
	// One pass finds where the parameters and headers start (dropped),
	// the first '@' (user/host split), the first ':' of the host part
	// (the port), and whether a user or host byte could not round-trip
	// through the canonical rendering: whitespace or control bytes are
	// eaten by the re-parse trim, angle brackets end the name-addr
	// <...> wrapper early, and a second '@' re-splits at the wrong
	// separator. Such a byte in the port fails the port check instead,
	// which comes first.
	at, colon, reserved := -1, -1, false
scan:
	for i := 0; i < len(rest); i++ {
		switch uriByteClass[rest[i]] {
		case uriPlain:
		case uriEnd:
			rest = rest[:i]
			break scan
		case uriAt:
			if at >= 0 {
				reserved = true
			} else {
				at, colon = i, -1
			}
		case uriColon:
			if colon < 0 {
				colon = i
			}
		default:
			reserved = true
		}
	}
	host := rest
	if at >= 0 && at < len(rest) {
		p.user, host = rest[:at], rest[at+1:]
		colon -= at + 1
	}
	if len(host) == 0 {
		return fmt.Errorf("sipmsg: URI %q: empty host", b) //vids:alloc-ok error path: malformed URI aborts parsing
	}
	if colon >= 0 && colon < len(host) {
		port, err := atoiBytes(host[colon+1:])
		if err != nil || port <= 0 || port > 65535 {
			return fmt.Errorf("sipmsg: URI %q: bad port", b) //vids:alloc-ok error path: malformed URI aborts parsing
		}
		p.port = port
		host = host[:colon]
	}
	if len(host) == 0 {
		return fmt.Errorf("sipmsg: URI %q: empty host", b) //vids:alloc-ok error path: malformed URI aborts parsing
	}
	if reserved {
		return fmt.Errorf("sipmsg: URI %q: reserved byte in user or host", b) //vids:alloc-ok error path: malformed URI aborts parsing
	}
	p.host = host
	return nil
}

// Byte classes for scanURI's single pass.
const (
	uriPlain    = iota
	uriEnd      // ';' or '?': parameters or headers follow
	uriAt       // the user/host separator
	uriColon    // the host/port separator
	uriReserved // whitespace, control bytes and angle brackets
)

var uriByteClass = func() (t [256]uint8) {
	for c := 0; c <= ' '; c++ {
		t[c] = uriReserved
	}
	t[0x7f], t['<'], t['>'] = uriReserved, uriReserved, uriReserved
	t[';'], t['?'] = uriEnd, uriEnd
	t['@'] = uriAt
	t[':'] = uriColon
	return t
}()

// uri materializes p, whose slices lie in b, as substrings of s ==
// string(b).
func (p uriParts) uri(s string, b []byte) URI {
	return URI{User: substr(s, b, p.user), Host: substr(s, b, p.host), Port: p.port}
}

// substr returns the substring of s that part spans, where part is a
// subslice of b and s holds b's bytes. A subslice's offset into b is
// the capacity it lost, so materializing a whole header costs one
// string(b) however many fields it yields.
func substr(s string, b, part []byte) string {
	i := cap(b) - cap(part)
	j := i + len(part)
	if i < 0 || j <= i || j > len(s) {
		return "" // empty, or not a subslice of b
	}
	return s[i:j]
}

// String renders the URI in canonical sip: form.
//
//vids:coldpath serialization for alerts and tests; the hot path renders keys with ids.AppendURI
func (u URI) String() string {
	var b strings.Builder
	b.WriteString("sip:")
	if u.User != "" {
		b.WriteString(u.User)
		b.WriteByte('@')
	}
	b.WriteString(u.Host)
	if u.Port != 0 {
		b.WriteByte(':')
		b.WriteString(strconv.Itoa(u.Port))
	}
	return b.String()
}

// EffectivePort returns the port, defaulting to 5060.
func (u URI) EffectivePort() int {
	if u.Port == 0 {
		return 5060
	}
	return u.Port
}

// NameAddr is a display-name + URI + parameters construct used by
// From, To and Contact header fields.
type NameAddr struct {
	Display string
	URI     URI
	Params  map[string]string // e.g. tag=...
}

// Tag returns the tag parameter ("" if absent).
func (n NameAddr) Tag() string { return n.Params["tag"] }

// WithTag returns a copy with the tag parameter set.
func (n NameAddr) WithTag(tag string) NameAddr {
	cp := n
	cp.Params = make(map[string]string, len(n.Params)+1)
	for k, v := range n.Params {
		cp.Params[k] = v
	}
	cp.Params["tag"] = tag
	return cp
}

// ParseNameAddr parses `"Alice" <sip:alice@a.com>;tag=xyz` or the
// addr-spec short form `sip:alice@a.com;tag=xyz`.
//
//vids:nopanic parses untrusted wire input
func ParseNameAddr(s string) (NameAddr, error) {
	b := []byte(s)
	var p nameAddrParts
	if err := scanNameAddr(b, &p); err != nil {
		return NameAddr{Display: substr(s, b, p.display)}, err
	}
	return p.nameAddr(s, b), nil
}

// nameAddrParts locates the pieces of a name-addr as subslices of the
// scanned bytes.
type nameAddrParts struct {
	display []byte
	uri     uriParts
	params  []byte // the ";k=v..." tail after the address
}

// scanNameAddr is the name-addr rule. It fills p (which the caller
// zeroes); on a bad URI inside angle brackets the display name is
// already set, as ParseNameAddr has always reported it.
func scanNameAddr(b []byte, p *nameAddrParts) error {
	b = bytes.TrimSpace(b)
	if i := bytes.IndexByte(b, '<'); i >= 0 {
		j := bytes.IndexByte(b, '>')
		// j == i is impossible (one byte cannot be both brackets), so
		// <= is equivalent to < and gives the gate i < j directly.
		if j <= i {
			return fmt.Errorf("sipmsg: name-addr %q: unbalanced angle brackets", b) //vids:alloc-ok error path: malformed header aborts parsing
		}
		p.display = trimQuotes(bytes.TrimSpace(b[:i]))
		p.params = b[j+1:]
		return scanURI(b[i+1:j], &p.uri)
	}
	// addr-spec form: params after the first ';' belong to the header
	// field, not the URI.
	uriPart := b
	if k := bytes.IndexByte(b, ';'); k >= 0 {
		uriPart, p.params = b[:k], b[k:]
	}
	return scanURI(uriPart, &p.uri)
}

// nameAddr materializes p, whose slices lie in b, over s == string(b).
func (p nameAddrParts) nameAddr(s string, b []byte) NameAddr {
	return NameAddr{Display: substr(s, b, p.display), URI: p.uri.uri(s, b), Params: paramMap(s, b, p.params)}
}

// trimQuotes strips leading and trailing double quotes.
func trimQuotes(b []byte) []byte {
	for len(b) > 0 && b[0] == '"' {
		b = b[1:]
	}
	for len(b) > 0 && b[len(b)-1] == '"' {
		b = b[:len(b)-1]
	}
	return b
}

// parseParams parses ";k=v;k2=v2" fragments into a map. Bare
// parameters (";lr") map to "", and a repeated key keeps its last
// value.
func parseParams(s string) map[string]string {
	b := []byte(s)
	return paramMap(s, b, b)
}

// paramMap materializes the parameters in params, a subslice of b,
// over s == string(b).
//
//vids:alloc-ok the params map of a header Parse retains
func paramMap(s string, b, params []byte) map[string]string {
	m := make(map[string]string)
	for {
		var k, v []byte
		var ok bool
		if k, v, params, ok = nextParam(params); !ok {
			return m
		}
		m[substr(s, b, k)] = substr(s, b, v)
	}
}

// nextParam is the parameter rule: it cuts the next non-empty
// ';'-separated parameter off b, trimmed, and returns its key, its
// value (nil for a bare parameter) and the rest of b. ok is false once
// b holds no parameter.
func nextParam(b []byte) (key, value, rest []byte, ok bool) {
	for len(b) > 0 {
		part := b
		b = nil
		if i := bytes.IndexByte(part, ';'); i >= 0 {
			part, b = part[:i], part[i+1:]
		}
		part = bytes.TrimSpace(part)
		if len(part) == 0 {
			continue
		}
		if eq := bytes.IndexByte(part, '='); eq >= 0 {
			return bytes.TrimSpace(part[:eq]), bytes.TrimSpace(part[eq+1:]), b, true
		}
		return part, nil, b, true
	}
	return nil, nil, nil, false
}

// hasTag reports whether params holds a non-empty tag: like the map
// parseParams builds, the last "tag" parameter wins.
func hasTag(params []byte) bool {
	tag := false
	for {
		k, v, rest, ok := nextParam(params)
		if !ok {
			return tag
		}
		if string(k) == "tag" {
			tag = len(v) > 0
		}
		params = rest
	}
}

// String renders the name-addr with sorted parameters for stable
// round-tripping.
func (n NameAddr) String() string {
	var b strings.Builder
	if n.Display != "" {
		b.WriteByte('"')
		b.WriteString(n.Display)
		b.WriteString(`" `)
	}
	b.WriteByte('<')
	b.WriteString(n.URI.String())
	b.WriteByte('>')
	writeParams(&b, n.Params)
	return b.String()
}

func writeParams(b *strings.Builder, params map[string]string) {
	keys := make([]string, 0, len(params))
	for k := range params {
		keys = append(keys, k)
	}
	sortStrings(keys)
	for _, k := range keys {
		b.WriteByte(';')
		b.WriteString(k)
		if v := params[k]; v != "" {
			b.WriteByte('=')
			b.WriteString(v)
		}
	}
}

// sortStrings is a tiny insertion sort; parameter lists have at most a
// handful of entries and this avoids importing sort into the hot path.
func sortStrings(s []string) {
	for i := 1; i < len(s); i++ {
		for j := i; j > 0 && s[j] < s[j-1]; j-- {
			s[j], s[j-1] = s[j-1], s[j]
		}
	}
}
