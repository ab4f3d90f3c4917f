"""Graph analysis: multiplicity spectra, degree structure, error rates."""
