package main

import (
	"context"
	"crypto/sha256"
	"fmt"
	"strings"

	"ensemblekit/internal/campaign"
	"ensemblekit/internal/indicators"
)

// reference runs every distinct request body in-process through
// campaign.RunCampaign, each on a fresh default campaign.Service (so the
// reference holds no more memory than one campaign needs): the result
// the server's answers are checked against.
type reference struct {
	fps map[[32]byte]string
}

func newReference() *reference {
	return &reference{fps: make(map[[32]byte]string)}
}

// of returns the reference fingerprint for a request body, running the
// sweep the first time the body is seen.
func (r *reference) of(body []byte) (string, error) {
	key := sha256.Sum256(body)
	if fp, ok := r.fps[key]; ok {
		return fp, nil
	}
	res, err := runReference(body)
	if err != nil {
		return "", err
	}
	fp, err := res.Fingerprint()
	if err != nil {
		return "", err
	}
	r.fps[key] = fp
	return fp, nil
}

// note records the fingerprint of a reference result the caller ran
// itself with runReference.
func (r *reference) note(body []byte, res *campaign.CampaignResult) error {
	fp, err := res.Fingerprint()
	if err != nil {
		return err
	}
	r.fps[sha256.Sum256(body)] = fp
	return nil
}

// runReference runs one request body on a fresh default service.
func runReference(body []byte) (*campaign.CampaignResult, error) {
	req, err := decode(body)
	if err != nil {
		return nil, err
	}
	svc, err := campaign.NewService(campaign.Config{})
	if err != nil {
		return nil, err
	}
	defer svc.Close()
	res, err := campaign.RunCampaign(context.Background(), svc, req.Sweep)
	if err != nil {
		return nil, fmt.Errorf("reference run: %w", err)
	}
	return res, nil
}

// verify checks one server result against the reference fingerprint
// and, for Table 2/4 campaigns, against the paper's pinned orderings.
func verify(got *campaign.CampaignResult, want string, pinnedOrder bool) error {
	fp, err := got.Fingerprint()
	if err != nil {
		return err
	}
	if fp != want {
		return fmt.Errorf("fingerprint %s, in-process reference %s", fp, want)
	}
	if pinnedOrder {
		return checkOrderings(got.Ranking)
	}
	return nil
}

// checkOrderings enforces the orderings the repository's tests pin:
// C1.5 first and C1.4 second among C1.1-C1.5, and C2.8 first among
// C2.1-C2.8.
func checkOrderings(ranking []indicators.Ranked) error {
	among := func(prefix string, n int) []string {
		var out []string
		for _, r := range ranking {
			if strings.HasPrefix(r.Name, prefix) {
				out = append(out, r.Name)
			}
		}
		if len(out) != n {
			return nil
		}
		return out
	}
	t2 := among("C1.", 5)
	if t2 == nil || t2[0] != "C1.5" || t2[1] != "C1.4" {
		return fmt.Errorf("Table 2 ordering %v, want C1.5 then C1.4 first", t2)
	}
	t4 := among("C2.", 8)
	if t4 == nil || t4[0] != "C2.8" {
		return fmt.Errorf("Table 4 ordering %v, want C2.8 first", t4)
	}
	return nil
}
