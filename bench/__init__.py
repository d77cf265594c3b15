"""Wall-clock benchmark of the ACROBAT reproduction (see ``bench/README.md``)."""
