"""intmat: exact MDS matrices and singularity-probability experiments
over small integer alphabets."""

__version__ = "0.1.0"
