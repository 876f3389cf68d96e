// Package comm simulates the user-to-user communication services that the
// CVM's Network Communication Broker orchestrates (paper §IV-A). It stands
// in for the real media/signalling frameworks (SIP, Skype adapters) used by
// the original prototype: sessions, participants, media streams,
// reconfiguration, deterministic virtual latencies and injectable failures.
//
// Every service operation records itself on a script.Trace; the
// behavioural-equivalence experiment (§VII-A) compares the traces produced
// by the model-based and handcrafted Broker implementations driving this
// same service.
package comm

import (
	"fmt"
	"sort"
	"sync"
	"time"

	"github.com/mddsm/mddsm/internal/broker"
	"github.com/mddsm/mddsm/internal/script"
	"github.com/mddsm/mddsm/internal/simtime"
)

// MediaType enumerates stream media.
type MediaType string

// Supported media types.
const (
	Audio MediaType = "audio"
	Video MediaType = "video"
	Chat  MediaType = "chat"
)

// ValidMedia reports whether m is a supported media type.
func ValidMedia(m MediaType) bool {
	switch m {
	case Audio, Video, Chat:
		return true
	}
	return false
}

// Stream is one media stream inside a session.
type Stream struct {
	ID        string
	Media     MediaType
	Bandwidth float64 // kbit/s
	Up        bool
}

// Session is a multi-party communication session.
type Session struct {
	ID           string
	participants map[string]bool
	streams      map[string]*Stream
}

// Participants returns the participant IDs sorted.
func (s *Session) Participants() []string {
	out := make([]string, 0, len(s.participants))
	for p := range s.participants {
		out = append(out, p)
	}
	sort.Strings(out)
	return out
}

// Streams returns the stream IDs sorted.
func (s *Session) Streams() []string {
	out := make([]string, 0, len(s.streams))
	for id := range s.streams {
		out = append(out, id)
	}
	sort.Strings(out)
	return out
}

// Stream returns a stream by ID, or nil.
func (s *Session) Stream(id string) *Stream { return s.streams[id] }

// Latencies assigns a virtual latency to each service operation, charged on
// the service clock. The defaults model the figures used in the scenario
// suite; domains can override them.
type Latencies map[string]time.Duration

// DefaultLatencies returns the standard operation latencies.
func DefaultLatencies() Latencies {
	return Latencies{
		"createSession":     40 * time.Millisecond,
		"closeSession":      20 * time.Millisecond,
		"addParticipant":    30 * time.Millisecond,
		"removeParticipant": 15 * time.Millisecond,
		"openStream":        60 * time.Millisecond,
		"closeStream":       20 * time.Millisecond,
		"reconfigureStream": 45 * time.Millisecond,
		"sendData":          5 * time.Millisecond,
	}
}

// Service is the simulated communication substrate. It is safe for
// concurrent use.
type Service struct {
	mu        sync.Mutex
	clock     simtime.Clock
	trace     *script.Trace
	latencies Latencies
	sessions  map[string]*Session
	sink      func(broker.Event)
	failNext  map[string]bool // op -> fail once
	cpuWork   int             // synthetic CPU iterations per operation
	workSink  uint64          // defeats dead-code elimination of the work loop
}

// NewService creates a service on the given clock. sink receives the
// service's asynchronous events and may be nil. Event names:
// "participantJoined", "participantLeft", "streamFailed", "sessionClosed";
// attribute keys: "session", "stream", "participant".
func NewService(clock simtime.Clock, sink func(broker.Event)) *Service {
	if clock == nil {
		clock = simtime.NewVirtual()
	}
	return &Service{
		clock:     clock,
		trace:     &script.Trace{},
		latencies: DefaultLatencies(),
		sessions:  make(map[string]*Session),
		sink:      sink,
		failNext:  make(map[string]bool),
	}
}

// Trace returns the recorded operation trace.
func (s *Service) Trace() *script.Trace { return s.trace }

// SetLatency overrides the virtual latency of one operation.
func (s *Service) SetLatency(op string, d time.Duration) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.latencies[op] = d
}

// FailNext makes the next invocation of op fail with an injected error.
func (s *Service) FailNext(op string) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.failNext[op] = true
}

// SetCPUWork makes every operation burn roughly n iterations of synthetic
// CPU work, modelling the real (marshalling/IPC/media) cost of a service
// call. The §VII-A overhead experiment sweeps this weight: the heavier the
// common service path, the smaller the middleware's relative overhead.
func (s *Service) SetCPUWork(n int) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.cpuWork = n
}

// charge records the op on the trace, burns the configured CPU work and
// advances virtual time. Callers hold the mutex.
func (s *Service) charge(op, target string, kv ...any) {
	s.trace.RecordOp(op, target, kv...)
	if s.cpuWork > 0 {
		acc := s.workSink
		for i := 0; i < s.cpuWork; i++ {
			acc = acc*6364136223846793005 + 1442695040888963407
		}
		s.workSink = acc
	}
	s.clock.Sleep(s.latencies[op])
}

// checkFail consumes a pending injected failure for op.
func (s *Service) checkFail(op string) error {
	if s.failNext[op] {
		delete(s.failNext, op)
		return fmt.Errorf("comm: injected failure on %s", op)
	}
	return nil
}

func (s *Service) emit(e broker.Event) {
	if s.sink != nil {
		s.sink(e)
	}
}

// CreateSession opens a new session.
func (s *Service) CreateSession(id string) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if err := s.checkFail("createSession"); err != nil {
		return err
	}
	if _, ok := s.sessions[id]; ok {
		return fmt.Errorf("comm: session %q already exists", id)
	}
	s.sessions[id] = &Session{
		ID:           id,
		participants: make(map[string]bool),
		streams:      make(map[string]*Stream),
	}
	s.charge("createSession", "session:"+id)
	return nil
}

// CloseSession tears a session down, closing its streams.
func (s *Service) CloseSession(id string) error {
	s.mu.Lock()
	if err := s.checkFail("closeSession"); err != nil {
		s.mu.Unlock()
		return err
	}
	sess, ok := s.sessions[id]
	if !ok {
		s.mu.Unlock()
		return fmt.Errorf("comm: unknown session %q", id)
	}
	for _, streamID := range sess.Streams() {
		s.charge("closeStream", "stream:"+streamID)
	}
	delete(s.sessions, id)
	s.charge("closeSession", "session:"+id)
	s.mu.Unlock()
	// Events are emitted outside the lock so a synchronous sink may
	// re-enter the service (e.g. middleware recovery paths).
	s.emit(broker.NewEvent("sessionClosed", "session", id))
	return nil
}

// AddParticipant joins a party to a session.
func (s *Service) AddParticipant(sessionID, participant string) error {
	s.mu.Lock()
	if err := s.checkFail("addParticipant"); err != nil {
		s.mu.Unlock()
		return err
	}
	sess, ok := s.sessions[sessionID]
	if !ok {
		s.mu.Unlock()
		return fmt.Errorf("comm: unknown session %q", sessionID)
	}
	if sess.participants[participant] {
		s.mu.Unlock()
		return fmt.Errorf("comm: participant %q already in session %q", participant, sessionID)
	}
	sess.participants[participant] = true
	s.charge("addParticipant", "session:"+sessionID, "who", participant)
	s.mu.Unlock()
	s.emit(broker.NewEvent("participantJoined", "session", sessionID, "participant", participant))
	return nil
}

// RemoveParticipant removes a party from a session.
func (s *Service) RemoveParticipant(sessionID, participant string) error {
	s.mu.Lock()
	if err := s.checkFail("removeParticipant"); err != nil {
		s.mu.Unlock()
		return err
	}
	sess, ok := s.sessions[sessionID]
	if !ok {
		s.mu.Unlock()
		return fmt.Errorf("comm: unknown session %q", sessionID)
	}
	if !sess.participants[participant] {
		s.mu.Unlock()
		return fmt.Errorf("comm: participant %q not in session %q", participant, sessionID)
	}
	delete(sess.participants, participant)
	s.charge("removeParticipant", "session:"+sessionID, "who", participant)
	s.mu.Unlock()
	s.emit(broker.NewEvent("participantLeft", "session", sessionID, "participant", participant))
	return nil
}

// OpenStream opens a media stream in a session.
func (s *Service) OpenStream(sessionID, streamID string, media MediaType, bandwidth float64) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if err := s.checkFail("openStream"); err != nil {
		return err
	}
	sess, ok := s.sessions[sessionID]
	if !ok {
		return fmt.Errorf("comm: unknown session %q", sessionID)
	}
	if !ValidMedia(media) {
		return fmt.Errorf("comm: invalid media type %q", media)
	}
	if bandwidth <= 0 {
		return fmt.Errorf("comm: bandwidth must be positive, got %v", bandwidth)
	}
	if _, ok := sess.streams[streamID]; ok {
		return fmt.Errorf("comm: stream %q already open in session %q", streamID, sessionID)
	}
	sess.streams[streamID] = &Stream{ID: streamID, Media: media, Bandwidth: bandwidth, Up: true}
	s.charge("openStream", "stream:"+streamID, "media", string(media), "bandwidth", bandwidth, "session", sessionID)
	return nil
}

// CloseStream closes a media stream.
func (s *Service) CloseStream(sessionID, streamID string) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if err := s.checkFail("closeStream"); err != nil {
		return err
	}
	sess, ok := s.sessions[sessionID]
	if !ok {
		return fmt.Errorf("comm: unknown session %q", sessionID)
	}
	if _, ok := sess.streams[streamID]; !ok {
		return fmt.Errorf("comm: unknown stream %q in session %q", streamID, sessionID)
	}
	delete(sess.streams, streamID)
	s.charge("closeStream", "stream:"+streamID)
	return nil
}

// ReconfigureStream changes a stream's media type and/or bandwidth. A
// failed (down) stream is brought back up by reconfiguration — this is the
// recovery path the scenario suite exercises.
func (s *Service) ReconfigureStream(sessionID, streamID string, media MediaType, bandwidth float64) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if err := s.checkFail("reconfigureStream"); err != nil {
		return err
	}
	sess, ok := s.sessions[sessionID]
	if !ok {
		return fmt.Errorf("comm: unknown session %q", sessionID)
	}
	st, ok := sess.streams[streamID]
	if !ok {
		return fmt.Errorf("comm: unknown stream %q in session %q", streamID, sessionID)
	}
	if !ValidMedia(media) {
		return fmt.Errorf("comm: invalid media type %q", media)
	}
	if bandwidth <= 0 {
		return fmt.Errorf("comm: bandwidth must be positive, got %v", bandwidth)
	}
	st.Media = media
	st.Bandwidth = bandwidth
	st.Up = true
	s.charge("reconfigureStream", "stream:"+streamID, "media", string(media), "bandwidth", bandwidth)
	return nil
}

// SendData sends application data over an open stream.
func (s *Service) SendData(sessionID, streamID string, bytes float64) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if err := s.checkFail("sendData"); err != nil {
		return err
	}
	sess, ok := s.sessions[sessionID]
	if !ok {
		return fmt.Errorf("comm: unknown session %q", sessionID)
	}
	st, ok := sess.streams[streamID]
	if !ok {
		return fmt.Errorf("comm: unknown stream %q in session %q", streamID, sessionID)
	}
	if !st.Up {
		return fmt.Errorf("comm: stream %q is down", streamID)
	}
	s.charge("sendData", "stream:"+streamID, "bytes", bytes)
	return nil
}

// InjectStreamFailure marks a stream down and emits a streamFailed event,
// modelling a transport fault the middleware must recover from.
func (s *Service) InjectStreamFailure(sessionID, streamID string) error {
	s.mu.Lock()
	sess, ok := s.sessions[sessionID]
	if !ok {
		s.mu.Unlock()
		return fmt.Errorf("comm: unknown session %q", sessionID)
	}
	st, ok := sess.streams[streamID]
	if !ok {
		s.mu.Unlock()
		return fmt.Errorf("comm: unknown stream %q in session %q", streamID, sessionID)
	}
	st.Up = false
	s.mu.Unlock()
	s.emit(broker.NewEvent("streamFailed", "session", sessionID, "stream", streamID))
	return nil
}

// Session returns a session by ID, or nil.
func (s *Service) Session(id string) *Session {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.sessions[id]
}

// SessionIDs returns the open session IDs sorted.
func (s *Service) SessionIDs() []string {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make([]string, 0, len(s.sessions))
	for id := range s.sessions {
		out = append(out, id)
	}
	sort.Strings(out)
	return out
}
