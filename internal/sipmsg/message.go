package sipmsg

import (
	"bytes"
	"fmt"
	"strconv"
	"strings"
)

// Method is a SIP request method.
type Method string

// The six RFC 3261 core methods (paper Section 2.1).
const (
	INVITE   Method = "INVITE"
	ACK      Method = "ACK"
	BYE      Method = "BYE"
	CANCEL   Method = "CANCEL"
	REGISTER Method = "REGISTER"
	OPTIONS  Method = "OPTIONS"
)

// KnownMethods lists every method this implementation accepts.
var KnownMethods = []Method{INVITE, ACK, BYE, CANCEL, REGISTER, OPTIONS}

// Common response status codes used by the testbed.
const (
	StatusTrying            = 100
	StatusRinging           = 180
	StatusOK                = 200
	StatusBadRequest        = 400
	StatusUnauthorized      = 401
	StatusNotFound          = 404
	StatusRequestTimeout    = 408
	StatusTemporarilyUnavbl = 480
	StatusCallDoesNotExist  = 481
	StatusBusyHere          = 486
	StatusRequestTerminated = 487
	StatusServerError       = 500
	StatusServiceUnavbl     = 503
	StatusDeclined          = 603
)

// ReasonPhrase returns the canonical reason phrase for a status code.
func ReasonPhrase(code int) string {
	switch code {
	case StatusTrying:
		return "Trying"
	case StatusRinging:
		return "Ringing"
	case StatusOK:
		return "OK"
	case StatusBadRequest:
		return "Bad Request"
	case StatusUnauthorized:
		return "Unauthorized"
	case StatusNotFound:
		return "Not Found"
	case StatusRequestTimeout:
		return "Request Timeout"
	case StatusTemporarilyUnavbl:
		return "Temporarily Unavailable"
	case StatusCallDoesNotExist:
		return "Call/Transaction Does Not Exist"
	case StatusBusyHere:
		return "Busy Here"
	case StatusRequestTerminated:
		return "Request Terminated"
	case StatusServerError:
		return "Server Internal Error"
	case StatusServiceUnavbl:
		return "Service Unavailable"
	case StatusDeclined:
		return "Decline"
	default:
		return "Unknown"
	}
}

// Via is one Via header entry. The branch parameter identifies the
// transaction (RFC 3261 §8.1.1.7).
type Via struct {
	Transport string // "UDP"
	Host      string
	Port      int
	Params    map[string]string // branch=..., received=...
}

// Branch returns the branch parameter.
func (v Via) Branch() string { return v.Params["branch"] }

// String renders the Via value.
func (v Via) String() string {
	var b strings.Builder
	b.WriteString("SIP/2.0/")
	b.WriteString(v.Transport)
	b.WriteByte(' ')
	b.WriteString(v.Host)
	if v.Port != 0 {
		b.WriteByte(':')
		b.WriteString(strconv.Itoa(v.Port))
	}
	writeParams(&b, v.Params)
	return b.String()
}

// ParseVia parses a Via header value.
//
//vids:nopanic parses untrusted wire input
func ParseVia(s string) (Via, error) {
	b := []byte(s)
	var p viaParts
	if err := scanVia(b, &p); err != nil {
		return Via{}, err
	}
	return p.via(s, b), nil
}

// viaParts locates the pieces of one Via entry as subslices of the
// scanned bytes.
type viaParts struct {
	transport, host []byte
	port            int
	params          []byte // the ";k=v..." tail after sent-by
}

const viaPrefix = sipVersion + "/"

// scanVia is the Via rule: ParseVia materializes its result, Parse and
// Scan run it in place on the wire bytes. It fills p (which the caller
// zeroes) and leaves it partial on error.
func scanVia(b []byte, p *viaParts) error {
	b = bytes.TrimSpace(b)
	if len(b) < len(viaPrefix) || string(b[:len(viaPrefix)]) != viaPrefix {
		return fmt.Errorf("sipmsg: Via %q: missing SIP/2.0/ prefix", b) //vids:alloc-ok error path: malformed Via aborts parsing
	}
	rest := b[len(viaPrefix):]
	sp := bytes.IndexByte(rest, ' ')
	if sp < 0 {
		return fmt.Errorf("sipmsg: Via %q: missing sent-by", b) //vids:alloc-ok error path: malformed Via aborts parsing
	}
	p.transport = rest[:sp]
	rest = bytes.TrimSpace(rest[sp+1:])
	hostPort := rest
	if i := bytes.IndexByte(rest, ';'); i >= 0 {
		hostPort, p.params = rest[:i], rest[i:]
	}
	if c := bytes.IndexByte(hostPort, ':'); c >= 0 {
		port, err := atoiBytes(hostPort[c+1:])
		if err != nil || port <= 0 || port > 65535 {
			return fmt.Errorf("sipmsg: Via %q: bad port", b) //vids:alloc-ok error path: malformed Via aborts parsing
		}
		p.port = port
		hostPort = hostPort[:c]
	}
	if len(hostPort) == 0 {
		return fmt.Errorf("sipmsg: Via %q: empty host", b) //vids:alloc-ok error path: malformed Via aborts parsing
	}
	p.host = hostPort
	return nil
}

// via materializes p, whose slices lie in b, over s == string(b).
func (p viaParts) via(s string, b []byte) Via {
	return Via{Transport: substr(s, b, p.transport), Host: substr(s, b, p.host),
		Port: p.port, Params: paramMap(s, b, p.params)}
}

// CSeq is the CSeq header value: sequence number plus method.
type CSeq struct {
	Seq    uint32
	Method Method
}

// String renders "1 INVITE".
func (c CSeq) String() string {
	return strconv.FormatUint(uint64(c.Seq), 10) + " " + string(c.Method)
}

// ParseCSeq parses a CSeq header value.
//
//vids:nopanic parses untrusted wire input
func ParseCSeq(s string) (CSeq, error) {
	fields := strings.Fields(s)
	if len(fields) != 2 {
		return CSeq{}, fmt.Errorf("sipmsg: CSeq %q: want <seq> <method>", s)
	}
	n, err := strconv.ParseUint(fields[0], 10, 32)
	if err != nil {
		return CSeq{}, fmt.Errorf("sipmsg: CSeq %q: bad sequence number", s)
	}
	return CSeq{Seq: uint32(n), Method: Method(fields[1])}, nil
}

// Message is a SIP request or response.
//
// A request has Method and RequestURI set; a response has StatusCode
// and Reason set. Both share the header fields and body.
type Message struct {
	// Request fields.
	Method     Method
	RequestURI URI

	// Response fields.
	StatusCode int
	Reason     string

	// Mandatory headers (RFC 3261 §8.1.1).
	Via         []Via
	From        NameAddr
	To          NameAddr
	CallID      string
	CSeq        CSeq
	Contact     *NameAddr
	MaxForwards int
	Expires     int // -1 means absent

	ContentType string
	Body        []byte

	// Other carries headers this package does not model explicitly,
	// preserved for round-tripping (canonical-cased name -> values).
	Other map[string][]string
}

// IsRequest reports whether m is a request.
func (m *Message) IsRequest() bool { return m.Method != "" }

// IsResponse reports whether m is a response.
func (m *Message) IsResponse() bool { return m.StatusCode != 0 }

// IsProvisional reports a 1xx response.
func (m *Message) IsProvisional() bool {
	return m.StatusCode >= 100 && m.StatusCode < 200
}

// IsSuccess reports a 2xx response.
func (m *Message) IsSuccess() bool {
	return m.StatusCode >= 200 && m.StatusCode < 300
}

// IsFinal reports a final (>= 200) response.
func (m *Message) IsFinal() bool { return m.StatusCode >= 200 }

// TopVia returns the first Via entry, or a zero Via if none.
func (m *Message) TopVia() Via {
	if len(m.Via) == 0 {
		return Via{}
	}
	return m.Via[0]
}

// Branch returns the top Via branch: the RFC 3261 transaction key.
func (m *Message) Branch() string { return m.TopVia().Branch() }

// DialogID returns the (Call-ID, local tag, remote tag) triple that
// identifies a dialog, from the perspective of the UA that sent From.
func (m *Message) DialogID() string {
	return m.CallID + "|" + m.From.Tag() + "|" + m.To.Tag()
}

// TransactionKey identifies the transaction a message belongs to:
// top Via branch plus CSeq method (CANCEL/ACK share the INVITE branch
// but are distinct server transactions, RFC 3261 §17.2.3).
func (m *Message) TransactionKey() string {
	method := m.CSeq.Method
	if method == ACK {
		// ACK for a non-2xx response belongs to the INVITE
		// transaction it acknowledges.
		method = INVITE
	}
	return m.Branch() + "|" + string(method)
}

// Clone returns a deep copy of the message.
func (m *Message) Clone() *Message {
	cp := *m
	cp.Via = make([]Via, len(m.Via))
	for i, v := range m.Via {
		cp.Via[i] = v
		cp.Via[i].Params = cloneMap(v.Params)
	}
	cp.From.Params = cloneMap(m.From.Params)
	cp.To.Params = cloneMap(m.To.Params)
	if m.Contact != nil {
		c := *m.Contact
		c.Params = cloneMap(m.Contact.Params)
		cp.Contact = &c
	}
	if m.Body != nil {
		cp.Body = append([]byte(nil), m.Body...)
	}
	if m.Other != nil {
		cp.Other = make(map[string][]string, len(m.Other))
		for k, vs := range m.Other {
			cp.Other[k] = append([]string(nil), vs...)
		}
	}
	return &cp
}

func cloneMap(m map[string]string) map[string]string {
	if m == nil {
		return nil
	}
	cp := make(map[string]string, len(m))
	for k, v := range m {
		cp[k] = v
	}
	return cp
}

// NewRequest builds a request with sane defaults (Max-Forwards 70,
// Expires absent).
func NewRequest(method Method, requestURI URI) *Message {
	return &Message{
		Method:      method,
		RequestURI:  requestURI,
		MaxForwards: 70,
		Expires:     -1,
	}
}

// NewResponse builds a response to req with the given status code,
// copying the header fields a UAS must mirror (RFC 3261 §8.2.6.2):
// Via, From, To, Call-ID, CSeq.
func NewResponse(req *Message, code int) *Message {
	resp := &Message{
		StatusCode: code,
		Reason:     ReasonPhrase(code),
		CallID:     req.CallID,
		CSeq:       req.CSeq,
		Expires:    -1,
	}
	resp.Via = make([]Via, len(req.Via))
	for i, v := range req.Via {
		resp.Via[i] = v
		resp.Via[i].Params = cloneMap(v.Params)
	}
	resp.From = req.From
	resp.From.Params = cloneMap(req.From.Params)
	resp.To = req.To
	resp.To.Params = cloneMap(req.To.Params)
	return resp
}

// Validate checks the invariants the rest of the stack relies on.
func (m *Message) Validate() error {
	return census{
		method:     []byte(m.Method),
		status:     m.StatusCode,
		ruriHost:   m.RequestURI.Host != "",
		callID:     m.CallID != "",
		cseqMethod: m.CSeq.Method != "",
		vias:       len(m.Via),
		fromHost:   m.From.URI.Host != "",
		toHost:     m.To.URI.Host != "",
	}.check()
}

// census records which of the mandatory parts a message has. Validate
// takes the census of a built message and the wire walk tallies one
// as it goes, so both are held to the one rule set in check.
type census struct {
	method     []byte // request method; empty for a response
	status     int    // response status code; 0 for a request
	ruriHost   bool
	callID     bool
	cseqMethod bool
	vias       int
	fromHost   bool
	toHost     bool
}

// check enforces RFC 3261 §8.1.1's mandatory fields.
//
//vids:alloc-ok allocates only for protocol violations, which abort the packet
func (c census) check() error {
	req, resp := len(c.method) > 0, c.status != 0
	switch {
	case req && resp:
		return fmt.Errorf("sipmsg: message is both request and response")
	case !req && !resp:
		return fmt.Errorf("sipmsg: message is neither request nor response")
	}
	if req {
		if _, known := lookupMethod(c.method); !known {
			return fmt.Errorf("sipmsg: unknown method %q", string(c.method)) // a copy: boxing the slice would leak the walked datagram
		}
		if !c.ruriHost {
			return fmt.Errorf("sipmsg: request without Request-URI host")
		}
	} else if c.status < 100 || c.status > 699 {
		return fmt.Errorf("sipmsg: status code %d out of range", c.status)
	}
	if !c.callID {
		return fmt.Errorf("sipmsg: missing Call-ID")
	}
	if !c.cseqMethod {
		return fmt.Errorf("sipmsg: missing CSeq method")
	}
	if c.vias == 0 {
		return fmt.Errorf("sipmsg: missing Via")
	}
	if !c.fromHost {
		return fmt.Errorf("sipmsg: missing From URI")
	}
	if !c.toHost {
		return fmt.Errorf("sipmsg: missing To URI")
	}
	return nil
}

// Summary renders a one-line description for logs and alerts.
//
//vids:coldpath alert text rendering; runs per raised alert, not per packet
func (m *Message) Summary() string {
	if m.IsRequest() {
		return fmt.Sprintf("%s %s (Call-ID %s)", m.Method, m.RequestURI, m.CallID)
	}
	return fmt.Sprintf("%d %s for %s (Call-ID %s)", m.StatusCode, m.Reason, m.CSeq.Method, m.CallID)
}
