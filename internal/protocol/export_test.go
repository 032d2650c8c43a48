package protocol

// NewPairIndex and CheckStepperOrder expose the order oracle to the
// external test package, which can import the converter.
var (
	NewPairIndex      = newPairIndex
	CheckStepperOrder = checkStepperOrder
)
