! CFG fixture: a cycle with two entries. The entry branch can jump straight
! into `mid` while its fall-through enters at `head`, so neither block of the
! head <-> mid cycle dominates the other (an irreducible region). Four blocks,
! no lint errors.
  .text
_start:
  cmp %g1, 0
  be mid
  nop
head:
  add %g2, 1, %g2
mid:
  subcc %g3, 1, %g3
  bne head
  nop
  ta 0
  nop
