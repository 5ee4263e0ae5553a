package classify

// ST1Config is Config as the SPES-ST1 state format froze it: the 25 fields
// Config had then, by name, kind and order, which core's snapshot config
// hash walks (sim.HashConfig). It is a hash schema, not a setting: nothing
// reads it back.
type ST1Config struct {
	AlwaysWarmIdleFrac float64
	RegularSpread      float64
	RegularCV          float64
	SlackCloseTol      int
	SlackSmallFrac     float64
	ApproModes         int
	ApproCoverage      float64
	DenseP90Max        float64
	DenseModes         int
	SuccessiveMinAT    int
	SuccessiveMinAN    int
	MinWTs             int
	ApproMinWTs        int
	DenseMinWTs        int
	LinkPrecision      float64
	SlotsPerDay        int
	Alpha              float64
	CORThreshold       float64
	MaxLag             int32
	ValidationFrac     float64
	ThetaPrewarm       int
	ThetaGivenupDense  int
	ThetaGivenupOther  int
	ValidationPrewarm  int
	Workers            int
}

// ST1 fills the frozen schema: the settable fields from c, the thresholds
// since made constants from those constants, so changing one still moves
// the hash, and the retired Workers as the 0 every ST1 blob hashed.
func (c Config) ST1() ST1Config {
	return ST1Config{
		AlwaysWarmIdleFrac: alwaysWarmIdleFrac,
		RegularSpread:      regularSpread,
		RegularCV:          regularCV,
		SlackCloseTol:      slackCloseTol,
		SlackSmallFrac:     slackSmallFrac,
		ApproModes:         approModes,
		ApproCoverage:      approCoverage,
		DenseP90Max:        denseP90Max,
		DenseModes:         DenseRangeModes,
		SuccessiveMinAT:    successiveMinAT,
		SuccessiveMinAN:    successiveMinAN,
		MinWTs:             minWTs,
		ApproMinWTs:        approMinWTs,
		DenseMinWTs:        denseMinWTs,
		LinkPrecision:      linkPrecision,
		SlotsPerDay:        slotsPerDay,
		Alpha:              alpha,
		CORThreshold:       corThreshold,
		MaxLag:             MaxCORLag,
		ValidationFrac:     validationFrac,
		ThetaPrewarm:       c.ThetaPrewarm,
		ThetaGivenupDense:  c.ThetaGivenupDense,
		ThetaGivenupOther:  c.ThetaGivenupOther,
		ValidationPrewarm:  validationPrewarm,
	}
}
