% Fixed: an application `eps(x)` of a maybe-assigned name compiled to
% "resolve eps, then index the result by x", so when the variable was
% unassigned compiled modes indexed the builtin's value (BadSubscript)
% where the interpreter calls eps(x). The arguments now go to the call.
% entry: f0
% arg: scalar 0.0
function r = f0(p0)
if p0 > 1
  eps = 0;
end
r = eps(2);
