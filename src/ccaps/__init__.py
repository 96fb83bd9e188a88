"""Contrastive capsule networks: self-supervised training and evaluation.

A Siamese capsule network (conv feature block, primary capsules, dynamic
routing by agreement) trained with a temperature-scaled contrastive loss
on unlabeled images, evaluated with weighted-kNN voting over a feature
bank, plus an exact parameter/FLOP profiler. Built on numpy with its own
reverse-mode kernels; see the CLI (`ccaps.cli`) for the operator surface.

The package re-exports nothing: import each name from its module. Each
job has one entry point, the one the program itself runs:
`ccaps.train.train` (also to resume, via `resume_from`),
`ccaps.loss.nt_xent_op` for the loss,
`ccaps.data.standardize(ccaps.data.to_unit_interval(pixels), stats)` for
input conditioning, `ccaps.knn.evaluate` for kNN accuracy, and
`ccaps.profiler.count_params` / `ccaps.profiler.count_flops` for the
profile.
"""
