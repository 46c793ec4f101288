package zkvm

import "math"

// FamilySoundness is what one sampled-check family of one segment
// gives against a one-step forgery: committed tables that break exactly
// one of the family's Domain relations and keep every other rule. Each
// of the family's Checks draws is uniform over the domain and
// independent of the others, so the forgery is accepted with
// probability Accept = (1 − 1/Domain)^Checks, which is Bits =
// −log2(Accept) bits of soundness.
type FamilySoundness struct {
	Segment int
	Family  string // exec, mem, final or init
	Checks  int
	Domain  int
	Accept  float64
	Bits    float64
}

// SoundnessReport is FamilySoundness for every live family of every
// segment of a receipt, in chain and transcript order. Headline is the
// weakest of them: the one that accepts a one-step forgery most often.
type SoundnessReport struct {
	Families []FamilySoundness
	Headline FamilySoundness
}

// Soundness computes the report of a receipt from its committed lengths
// and check counts alone: it says what the receipt's sampling gives if
// it verifies, and checks nothing.
func Soundness(r *Receipt) SoundnessReport {
	var rep SoundnessReport
	for i, sr := range r.Segments {
		for _, f := range sr.families() {
			if f.domain < 1 {
				continue
			}
			lnAccept := float64(f.checks) * math.Log1p(-1/float64(f.domain))
			fs := FamilySoundness{Segment: i, Family: f.name, Checks: f.checks, Domain: f.domain,
				Accept: math.Exp(lnAccept), Bits: -lnAccept / math.Ln2}
			if len(rep.Families) == 0 || fs.Bits < rep.Headline.Bits {
				rep.Headline = fs
			}
			rep.Families = append(rep.Families, fs)
		}
	}
	return rep
}
