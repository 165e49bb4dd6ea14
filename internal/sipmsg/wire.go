package sipmsg

import (
	"bytes"
	"fmt"
	"sort"
	"strconv"
	"strings"
)

const sipVersion = "SIP/2.0"

// canonicalHeader maps lower-case and compact header names to their
// canonical forms (RFC 3261 §7.3.3 compact forms).
var canonicalHeader = map[string]string{
	"via":              "Via",
	"v":                "Via",
	"from":             "From",
	"f":                "From",
	"to":               "To",
	"t":                "To",
	"call-id":          "Call-ID",
	"i":                "Call-ID",
	"cseq":             "CSeq",
	"contact":          "Contact",
	"m":                "Contact",
	"max-forwards":     "Max-Forwards",
	"content-type":     "Content-Type",
	"c":                "Content-Type",
	"content-length":   "Content-Length",
	"l":                "Content-Length",
	"expires":          "Expires",
	"authorization":    "Authorization",
	"www-authenticate": "WWW-Authenticate",
}

// CanonicalHeaderName normalizes a header field name, resolving
// compact forms; unknown names get simple Title-By-Dash casing.
func CanonicalHeaderName(name string) string {
	if c, ok := canonicalHeader[strings.ToLower(strings.TrimSpace(name))]; ok {
		return c
	}
	parts := strings.Split(strings.TrimSpace(name), "-")
	for i, p := range parts {
		if p == "" {
			continue
		}
		parts[i] = strings.ToUpper(p[:1]) + strings.ToLower(p[1:])
	}
	return strings.Join(parts, "-")
}

// Header identities for the byte-level lookup. hdrOther covers both
// unmodeled known headers (which carry a canonical name) and unknown
// ones (canonicalized on demand).
const (
	hdrOther = iota
	hdrVia
	hdrFrom
	hdrTo
	hdrCallID
	hdrCSeq
	hdrContact
	hdrMaxForwards
	hdrExpires
	hdrContentType
	hdrContentLength
)

// View is what the ingress lanes read of a SIP datagram: the fields
// they pick a shard, feed the cross-call detectors and keep their call
// and media indexes by. Scan fills it without materializing anything,
// so the byte-slice fields alias the scanned datagram (or, for a
// folded header line, a scratch buffer of its own) and are valid only
// while it is.
type View struct {
	Method     []byte // request method; empty for a response
	Status     int    // response status code; 0 for a request
	RURIUser   []byte // Request-URI user part
	RURIHost   []byte // Request-URI host part
	CallID     []byte
	ToTag      bool // To carries a non-empty tag (the last tag wins, as in Parse)
	CSeqMethod []byte
	Body       []byte // the Content-Length-clamped body
}

// IsRequest reports whether the scanned datagram is a request.
func (v *View) IsRequest() bool { return len(v.Method) > 0 }

// Scan runs Parse's grammar over data without building a Message: it
// returns nil exactly when Parse does, and then every field of v
// equals the matching Message field. A well-formed datagram costs no
// allocation; a folded header line takes a scratch buffer and a
// rejected datagram its error, as in Parse.
//
//vids:noalloc per-datagram SIP routing scan on the ingress lanes
//vids:nopanic parses untrusted wire input
func Scan(data []byte, v *View) error {
	var w walker
	err := w.walk(data)
	*v = w.v
	return err
}

// Parse parses a SIP message from its wire form in a single pass over
// data: no up-front copy of the input, no header-block split. It is
// Scan's walk with materialization switched on. Field values are
// independent strings, but Body aliases data — callers that reuse or
// mutate the buffer after Parse must copy the body (Clone does).
//
//vids:noalloc per-packet SIP decode; budget alloc_test.go:maxSIPParseAllocs
//vids:nopanic parses untrusted wire input
func Parse(data []byte) (*Message, error) {
	w := walker{m: &Message{Expires: -1, MaxForwards: -1}} //vids:alloc-ok one message object per packet; budgeted by alloc_test.go:maxSIPParseAllocs
	if err := w.walk(data); err != nil {
		return nil, err
	}
	return w.m, nil
}

// walker is one pass of the SIP grammar over a datagram. It always
// fills v; when m is non-nil (Parse) it also materializes every header
// into m, and when m is nil (Scan) nothing is materialized. Every
// accept/reject decision is taken on the bytes, before and
// independently of materialization, so Scan and Parse cannot disagree.
type walker struct {
	v             View
	m             *Message
	census        census
	contentLength int // -1 when absent
}

func (w *walker) walk(data []byte) error {
	w.contentLength = -1
	line, rest, more := cutLine(data)
	if len(trimASCII(line)) == 0 {
		return fmt.Errorf("sipmsg: empty message") //vids:alloc-ok error path: malformed message aborts parsing
	}
	if err := w.startLine(line); err != nil {
		return err
	}

	// Walk the header block one physical line at a time, up to the
	// first empty CRLF-terminated line, unfolding continuation lines
	// (SP/HT-led) into scratch only when they occur. Each folded line
	// gets a buffer of its own: the View may alias it.
	var body, cur []byte
	haveCur, curFolded := false, false
	for more {
		var ln []byte
		ln, rest, more = cutLine(rest)
		if len(ln) == 0 {
			if more {
				body = rest
				break
			}
			continue
		}
		if (ln[0] == ' ' || ln[0] == '\t') && haveCur {
			if !curFolded {
				cur = append([]byte(nil), cur...) //vids:alloc-ok folded header lines only; unfolding needs a contiguous copy
				curFolded = true
			}
			cur = append(cur, ' ')
			cur = append(cur, trimASCII(ln)...)
			continue
		}
		if haveCur {
			if err := w.header(cur); err != nil {
				return err
			}
		}
		cur, haveCur, curFolded = ln, true, false
	}
	if haveCur {
		if err := w.header(cur); err != nil {
			return err
		}
	}

	if w.contentLength >= 0 {
		if w.contentLength > len(body) {
			return fmt.Errorf("sipmsg: Content-Length %d exceeds body size %d", //vids:alloc-ok error path: malformed message aborts parsing
				w.contentLength, len(body))
		}
		body = body[:w.contentLength]
	}
	w.v.Body = body
	if m := w.m; m != nil {
		if len(body) > 0 {
			m.Body = body
		}
		if m.MaxForwards < 0 {
			m.MaxForwards = 70
		}
	}
	c := &w.census
	c.method, c.status = w.v.Method, w.v.Status
	c.ruriHost = len(w.v.RURIHost) > 0
	c.callID = len(w.v.CallID) > 0
	c.cseqMethod = len(w.v.CSeqMethod) > 0
	return c.check()
}

// cutLine cuts the first CRLF-terminated line off b and reports
// whether there was one; if not, line is all of b.
func cutLine(b []byte) (line, rest []byte, more bool) {
	for tail := b; ; {
		i := bytes.IndexByte(tail, '\n')
		if i < 0 {
			return b, nil, false
		}
		if n := len(b) - len(tail) + i; n > 0 && n < len(b) && b[n-1] == '\r' {
			return b[:n-1], b[n+1:], true
		}
		tail = tail[i+1:]
	}
}

// header dispatches one logical (unfolded) header line.
func (w *walker) header(ln []byte) error {
	colon := bytes.IndexByte(ln, ':')
	if colon < 0 {
		return fmt.Errorf("sipmsg: malformed header line %q", ln) //vids:alloc-ok error path: malformed message aborts parsing
	}
	name := trimASCII(ln[:colon])
	value := trimASCII(ln[colon+1:])
	id, canon := lookupHeader(name)
	m := w.m
	switch id {
	case hdrVia:
		return w.via(value)
	case hdrFrom, hdrTo, hdrContact:
		var p nameAddrParts
		if err := scanNameAddr(value, &p); err != nil {
			return fmt.Errorf("sipmsg: %s: %w", canon, err) //vids:alloc-ok error path: malformed message aborts parsing
		}
		switch id {
		case hdrFrom:
			w.census.fromHost = true // scanURI never yields an empty host
			if m != nil {
				m.From = p.nameAddr(string(value), value) //vids:alloc-ok Parse materializes the From value; Scan has no Message
			}
		case hdrTo:
			w.census.toHost = true
			w.v.ToTag = hasTag(p.params)
			if m != nil {
				m.To = p.nameAddr(string(value), value) //vids:alloc-ok Parse materializes the To value; Scan has no Message
			}
		case hdrContact:
			if m != nil {
				na := p.nameAddr(string(value), value) //vids:alloc-ok Parse materializes the Contact value; Scan has no Message
				m.Contact = &na
			}
		}
	case hdrCallID:
		w.v.CallID = value
		if m != nil {
			m.CallID = string(value) //vids:alloc-ok Parse materializes the Call-ID; Scan has no Message
		}
	case hdrCSeq:
		seq, method, err := parseCSeqBytes(value)
		if err != nil {
			return err
		}
		w.v.CSeqMethod = method
		if m != nil {
			m.CSeq = CSeq{Seq: seq, Method: internMethod(method)}
		}
	case hdrMaxForwards:
		n, err := atoiBytes(value)
		if err != nil || n < 0 {
			return fmt.Errorf("sipmsg: bad Max-Forwards %q", value) //vids:alloc-ok error path: malformed message aborts parsing
		}
		if m != nil {
			m.MaxForwards = n
		}
	case hdrExpires:
		n, err := atoiBytes(value)
		if err != nil || n < 0 {
			return fmt.Errorf("sipmsg: bad Expires %q", value) //vids:alloc-ok error path: malformed message aborts parsing
		}
		if m != nil {
			m.Expires = n
		}
	case hdrContentType:
		if m != nil {
			m.ContentType = string(value) //vids:alloc-ok Parse materializes the Content-Type; Scan has no Message
		}
	case hdrContentLength:
		n, err := atoiBytes(value)
		if err != nil || n < 0 {
			return fmt.Errorf("sipmsg: bad Content-Length %q", value) //vids:alloc-ok error path: malformed message aborts parsing
		}
		w.contentLength = n
	default:
		if m != nil {
			m.addOther(name, canon, value)
		}
	}
	return nil
}

// addOther keeps a header this package does not model.
//
//vids:alloc-ok Parse's header materialization; Scan has no Message
func (m *Message) addOther(name []byte, canon string, value []byte) {
	if canon == "" {
		canon = canonicalizeBytes(name)
	}
	if m.Other == nil {
		m.Other = make(map[string][]string)
	}
	m.Other[canon] = append(m.Other[canon], string(value))
}

// via splits a Via value on top-level commas (outside quotes and angle
// brackets) and scans each entry.
func (w *walker) via(value []byte) error {
	for more := true; more; {
		var entry []byte
		entry, value, more = cutTopLevelComma(value)
		entry = trimASCII(entry)
		var p viaParts
		if err := scanVia(entry, &p); err != nil {
			return err
		}
		w.census.vias++
		if m := w.m; m != nil {
			m.Via = append(m.Via, p.via(string(entry), entry)) //vids:alloc-ok Parse materializes the Via entry; Scan has no Message
		}
	}
	return nil
}

// cutTopLevelComma cuts b at its first comma outside quotes and angle
// brackets and reports whether there was one; if not, before is all of
// b.
func cutTopLevelComma(b []byte) (before, after []byte, found bool) {
	if bytes.IndexByte(b, ',') < 0 {
		return b, nil, false
	}
	depth := 0
	inQuote := false
	for i, c := range b {
		switch {
		case c == '"':
			inQuote = !inQuote
		case inQuote:
		case c == '<':
			depth++
		case c == '>':
			if depth > 0 {
				depth--
			}
		case c == ',' && depth == 0:
			return b[:i], b[i+1:], true
		}
	}
	return b, nil, false
}

// startLine parses `METHOD URI SIP/2.0` or `SIP/2.0 code reason`.
func (w *walker) startLine(line []byte) error {
	line = trimASCII(line)
	if len(line) > len(sipVersion) &&
		string(line[:len(sipVersion)]) == sipVersion && line[len(sipVersion)] == ' ' {
		// Status line: SIP/2.0 200 OK
		rest := line[len(sipVersion)+1:]
		codePart := rest
		var reason []byte
		if sp := bytes.IndexByte(rest, ' '); sp >= 0 {
			codePart, reason = rest[:sp], rest[sp+1:]
		}
		code, err := atoiBytes(codePart)
		if err != nil || code < 100 || code > 699 {
			return fmt.Errorf("sipmsg: bad status line %q", line) //vids:alloc-ok error path: malformed message aborts parsing
		}
		w.v.Status = code
		if m := w.m; m != nil {
			m.StatusCode = code
			m.Reason = string(reason) //vids:alloc-ok Parse materializes the reason phrase; Scan has no Message
		}
		return nil
	}
	// Request line: INVITE sip:bob@b.com SIP/2.0
	var fields [3][]byte
	n := 0
	rest := line
	for len(rest) > 0 {
		for len(rest) > 0 && asciiSpace(rest[0]) {
			rest = rest[1:]
		}
		if len(rest) == 0 {
			break
		}
		j := 0
		for j < len(rest) && !asciiSpace(rest[j]) {
			j++
		}
		if n >= len(fields) {
			return fmt.Errorf("sipmsg: bad request line %q", line) //vids:alloc-ok error path: malformed message aborts parsing
		}
		if j < len(rest) {
			fields[n] = rest[:j]
			rest = rest[j:]
		} else {
			fields[n] = rest
			rest = rest[:0]
		}
		n++
	}
	if n != 3 || string(fields[2]) != sipVersion {
		return fmt.Errorf("sipmsg: bad request line %q", line) //vids:alloc-ok error path: malformed message aborts parsing
	}
	var u uriParts
	if err := scanURI(fields[1], &u); err != nil {
		return err
	}
	w.v.Method, w.v.RURIUser, w.v.RURIHost = fields[0], u.user, u.host
	if m := w.m; m != nil {
		m.Method = internMethod(fields[0])
		m.RequestURI = u.uri(string(fields[1]), fields[1]) //vids:alloc-ok Parse materializes the Request-URI; Scan has no Message
	}
	return nil
}

// parseCSeqBytes parses a CSeq value ("314159 INVITE") in place,
// returning the method as a subslice of b.
//
//vids:alloc-ok allocates only for malformed CSeq lines, which abort the packet
func parseCSeqBytes(b []byte) (uint32, []byte, error) {
	var f0, f1 []byte
	n := 0
	rest := b
	for len(rest) > 0 {
		for len(rest) > 0 && asciiSpace(rest[0]) {
			rest = rest[1:]
		}
		if len(rest) == 0 {
			break
		}
		j := 0
		for j < len(rest) && !asciiSpace(rest[j]) {
			j++
		}
		field := rest
		if j < len(rest) {
			field, rest = rest[:j], rest[j:]
		} else {
			rest = rest[:0]
		}
		switch n {
		case 0:
			f0 = field
		case 1:
			f1 = field
		default:
			return 0, nil, fmt.Errorf("sipmsg: CSeq %q: want <seq> <method>", b)
		}
		n++
	}
	if n != 2 {
		return 0, nil, fmt.Errorf("sipmsg: CSeq %q: want <seq> <method>", b)
	}
	var seq uint64
	for _, c := range f0 {
		if c < '0' || c > '9' {
			return 0, nil, fmt.Errorf("sipmsg: CSeq %q: bad sequence number", b)
		}
		seq = seq*10 + uint64(c-'0')
		if seq > 1<<32-1 {
			return 0, nil, fmt.Errorf("sipmsg: CSeq %q: bad sequence number", b)
		}
	}
	return uint32(seq), f1, nil
}

// lookupMethod returns the shared constant for a known method.
func lookupMethod(b []byte) (Method, bool) {
	for _, k := range KnownMethods {
		if string(b) == string(k) {
			return k, true
		}
	}
	return "", false
}

// internMethod returns the shared constant for known methods so the
// hot path never allocates a method string.
//
//vids:alloc-ok unknown methods only; the static table covers every RFC 3261 method
func internMethod(b []byte) Method {
	if k, ok := lookupMethod(b); ok {
		return k
	}
	return Method(b)
}

// lookupHeader resolves a header name (case-insensitively, including
// compact forms) without allocating. For known-but-unmodeled headers
// it returns hdrOther with the canonical name; for unknown ones the
// canonical name is empty and computed by the caller.
func lookupHeader(name []byte) (int, string) {
	switch len(name) {
	case 1:
		switch lowerByte(name[0]) {
		case 'v':
			return hdrVia, "Via"
		case 'f':
			return hdrFrom, "From"
		case 't':
			return hdrTo, "To"
		case 'i':
			return hdrCallID, "Call-ID"
		case 'm':
			return hdrContact, "Contact"
		case 'c':
			return hdrContentType, "Content-Type"
		case 'l':
			return hdrContentLength, "Content-Length"
		}
	case 2:
		if foldEq(name, "to") {
			return hdrTo, "To"
		}
	case 3:
		if foldEq(name, "via") {
			return hdrVia, "Via"
		}
	case 4:
		if foldEq(name, "from") {
			return hdrFrom, "From"
		}
		if foldEq(name, "cseq") {
			return hdrCSeq, "CSeq"
		}
	case 7:
		if foldEq(name, "call-id") {
			return hdrCallID, "Call-ID"
		}
		if foldEq(name, "contact") {
			return hdrContact, "Contact"
		}
		if foldEq(name, "expires") {
			return hdrExpires, "Expires"
		}
	case 12:
		if foldEq(name, "content-type") {
			return hdrContentType, "Content-Type"
		}
		if foldEq(name, "max-forwards") {
			return hdrMaxForwards, "Max-Forwards"
		}
	case 13:
		if foldEq(name, "authorization") {
			return hdrOther, "Authorization"
		}
	case 14:
		if foldEq(name, "content-length") {
			return hdrContentLength, "Content-Length"
		}
	case 16:
		if foldEq(name, "www-authenticate") {
			return hdrOther, "WWW-Authenticate"
		}
	}
	return hdrOther, ""
}

// canonicalizeBytes Title-By-Dash-cases an unknown header name,
// mirroring CanonicalHeaderName's fallback for ASCII names.
//
//vids:alloc-ok unknown header names only; known headers hit the static table
func canonicalizeBytes(name []byte) string {
	out := make([]byte, 0, len(name))
	up := true
	for _, c := range name {
		switch {
		case c == '-':
			out = append(out, c)
			up = true
		case up:
			out = append(out, upperByte(c))
			up = false
		default:
			out = append(out, lowerByte(c))
		}
	}
	return string(out)
}

// atoiBytes is strconv.Atoi for byte slices: optional sign, decimal
// digits, error on anything else or overflow.
//
//vids:alloc-ok allocates only for malformed digits, which abort the packet
func atoiBytes(b []byte) (int, error) {
	i, neg := 0, false
	if len(b) > 0 && (b[0] == '+' || b[0] == '-') {
		neg = b[0] == '-'
		i = 1
	}
	if i == len(b) {
		return 0, fmt.Errorf("sipmsg: bad number %q", b)
	}
	n := 0
	for ; i < len(b); i++ {
		c := b[i]
		if c < '0' || c > '9' {
			return 0, fmt.Errorf("sipmsg: bad number %q", b)
		}
		if n > (1<<62)/10 {
			return 0, fmt.Errorf("sipmsg: number %q overflows", b)
		}
		n = n*10 + int(c-'0')
		if n < 0 {
			return 0, fmt.Errorf("sipmsg: number %q overflows", b)
		}
	}
	if neg {
		n = -n
	}
	return n, nil
}

func trimASCII(b []byte) []byte {
	for len(b) > 0 && asciiSpace(b[0]) {
		b = b[1:]
	}
	for len(b) > 0 && asciiSpace(b[len(b)-1]) {
		b = b[:len(b)-1]
	}
	return b
}

func asciiSpace(c byte) bool {
	return c == ' ' || c-'\t' <= '\r'-'\t' // SP, or HT LF VT FF CR
}

func lowerByte(c byte) byte {
	if c >= 'A' && c <= 'Z' {
		return c + ('a' - 'A')
	}
	return c
}

func upperByte(c byte) byte {
	if c >= 'a' && c <= 'z' {
		return c - ('a' - 'A')
	}
	return c
}

// foldEq reports whether b equals the (lower-case) name s under ASCII
// case folding.
func foldEq(b []byte, s string) bool {
	if len(b) != len(s) {
		return false
	}
	for i := 0; i < len(s); i++ {
		if lowerByte(b[i]) != s[i] {
			return false
		}
	}
	return true
}

// Bytes serializes the message to its wire form with a correct
// Content-Length.
func (m *Message) Bytes() []byte {
	var b strings.Builder
	if m.IsRequest() {
		b.WriteString(string(m.Method))
		b.WriteByte(' ')
		b.WriteString(m.RequestURI.String())
		b.WriteByte(' ')
		b.WriteString(sipVersion)
	} else {
		b.WriteString(sipVersion)
		b.WriteByte(' ')
		b.WriteString(strconv.Itoa(m.StatusCode))
		b.WriteByte(' ')
		reason := m.Reason
		if reason == "" {
			reason = ReasonPhrase(m.StatusCode)
		}
		b.WriteString(reason)
	}
	b.WriteString("\r\n")

	for _, v := range m.Via {
		writeHeader(&b, "Via", v.String())
	}
	writeHeader(&b, "From", m.From.String())
	writeHeader(&b, "To", m.To.String())
	writeHeader(&b, "Call-ID", m.CallID)
	writeHeader(&b, "CSeq", m.CSeq.String())
	if m.Contact != nil {
		writeHeader(&b, "Contact", m.Contact.String())
	}
	if m.IsRequest() {
		mf := m.MaxForwards
		if mf < 0 {
			mf = 70
		}
		writeHeader(&b, "Max-Forwards", strconv.Itoa(mf))
	}
	if m.Expires >= 0 {
		writeHeader(&b, "Expires", strconv.Itoa(m.Expires))
	}
	if m.ContentType != "" {
		writeHeader(&b, "Content-Type", m.ContentType)
	}

	if m.Other != nil {
		names := make([]string, 0, len(m.Other))
		for name := range m.Other {
			names = append(names, name)
		}
		sort.Strings(names)
		for _, name := range names {
			for _, v := range m.Other[name] {
				writeHeader(&b, name, v)
			}
		}
	}

	writeHeader(&b, "Content-Length", strconv.Itoa(len(m.Body)))
	b.WriteString("\r\n")
	b.Write(m.Body)
	return []byte(b.String())
}

func writeHeader(b *strings.Builder, name, value string) {
	b.WriteString(name)
	b.WriteString(": ")
	b.WriteString(value)
	b.WriteString("\r\n")
}

// WireSize returns the serialized size in bytes. The paper assumes an
// average SIP message size of 500 bytes (Section 7.1); the simulator
// uses real serialized sizes, which land in the same range.
func (m *Message) WireSize() int { return len(m.Bytes()) }
