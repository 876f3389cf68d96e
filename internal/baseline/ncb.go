// Package baseline implements the paper's comparators:
//
//   - HandcraftedNCB — the original, non-model-based CVM Broker layer
//     (paper §VII-A): a hand-coded dispatch over the communication service,
//     equivalent in behaviour to the model-based NCB but without the
//     metamodel machinery (no action selection, no policy scopes, no
//     template expansion);
//   - NonAdaptiveController — the "previous non-adaptive Controller" of
//     §VII-B: commands are wired to fixed procedures with no
//     classification, no policies and no intent-model generation.
package baseline

import (
	"fmt"

	"github.com/mddsm/mddsm/internal/broker"
	"github.com/mddsm/mddsm/internal/resources/comm"
	"github.com/mddsm/mddsm/internal/script"
	"github.com/mddsm/mddsm/internal/simtime"
)

// HandcraftedNCB is the hand-coded communication Broker. It exposes the
// same Call surface as the model-based Broker and recovers failed streams
// identically (safe audio profile), so the two must produce equal service
// traces on the scenario suite.
type HandcraftedNCB struct {
	Service *comm.Service
	Clock   *simtime.VirtualClock
}

// NewHandcraftedNCB builds the broker over a fresh simulated service with
// its failure-recovery handler wired.
func NewHandcraftedNCB() *HandcraftedNCB {
	clock := simtime.NewVirtual()
	n := &HandcraftedNCB{Clock: clock}
	n.Service = comm.NewService(clock, n.onEvent)
	return n
}

// Call dispatches one broker-level call directly to the service.
func (n *HandcraftedNCB) Call(cmd script.Command) error {
	id := stripPrefix(cmd.Target)
	switch cmd.Op {
	case "createSession":
		return n.Service.CreateSession(id)
	case "closeSession":
		return n.Service.CloseSession(id)
	case "addParticipant":
		return n.Service.AddParticipant(id, cmd.StringArg("who"))
	case "removeParticipant":
		return n.Service.RemoveParticipant(id, cmd.StringArg("who"))
	case "openStream":
		return n.Service.OpenStream(cmd.StringArg("session"), id,
			comm.MediaType(cmd.StringArg("media")), cmd.NumArg("bandwidth"))
	case "closeStream":
		return n.Service.CloseStream(cmd.StringArg("session"), id)
	case "reconfigureStream":
		media := comm.MediaType(cmd.StringArg("media"))
		bandwidth := cmd.NumArg("bandwidth")
		if media == "" || bandwidth == 0 {
			sess := n.Service.Session(cmd.StringArg("session"))
			if sess == nil {
				return fmt.Errorf("handcrafted ncb: unknown session %q", cmd.StringArg("session"))
			}
			st := sess.Stream(id)
			if st == nil {
				return fmt.Errorf("handcrafted ncb: unknown stream %q", id)
			}
			if media == "" {
				media = st.Media
			}
			if bandwidth == 0 {
				bandwidth = st.Bandwidth
			}
		}
		return n.Service.ReconfigureStream(cmd.StringArg("session"), id, media, bandwidth)
	case "sendData":
		return n.Service.SendData(cmd.StringArg("session"), id, cmd.NumArg("bytes"))
	default:
		return fmt.Errorf("handcrafted ncb: unknown op %q", cmd.Op)
	}
}

// onEvent recovers failed streams by reconfiguring them to the safe audio
// profile — the same behaviour the model-based NCB declares as an event
// action.
func (n *HandcraftedNCB) onEvent(e broker.Event) {
	if e.Name != "streamFailed" {
		return
	}
	// Recovery failures have no caller; the stream simply stays down.
	_ = n.Service.ReconfigureStream(e.Str("session"), e.Str("stream"), comm.Audio, 32)
}

func stripPrefix(target string) string {
	for i := 0; i < len(target); i++ {
		if target[i] == ':' {
			return target[i+1:]
		}
	}
	return target
}
