! nfpfuzz reproducer (directed)
! seed: n/a (hand-written regression program)
! mix: selfmod
! divergence: none on current simulator; guards mid-chain invalidation.
!   The loop's first block stores an xor-toggled instruction word over the
!   entry of its successor ("patch") and then branches into the rewritten
!   block: every invalidation must flush "patch" (and unpatch the jit's
!   head -> patch jump) or a stale trace executes.
! step instret: 8 iterations alternating the patched immediate (5 / 9)
  .text
  .global _start
_start:
  mov 0, %o0
  set patch, %g5
  set word2, %g6
  ld [%g6], %g6
  ld [%g5], %o1
  xor %o1, %g6, %g6
  mov 8, %g7
head:
  ld [%g5], %o1
  xor %o1, %g6, %o1
  st %o1, [%g5]
  ba patch
  nop
patch:
  add %o0, 5, %o0
  subcc %g7, 1, %g7
  bne head
  nop
  ta 0
  nop
word2:
  add %o0, 9, %o0
